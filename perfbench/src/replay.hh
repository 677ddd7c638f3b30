/**
 * @file
 * Layer replays: a workload's own µop stream driven through one layer
 * at a time (memory hierarchy, branch predictor, MOP detector,
 * scheduler), timed from outside through each layer's public calls.
 *
 * They stand in for in-program counters inside OooCore::step, which
 * would attribute the pipeline's own time to these layers; the
 * replays see the stream in program order, without the pipeline's
 * fetch stalls, wrong-path effects or MOP formation.
 */

#ifndef MOPBENCH_REPLAY_HH
#define MOPBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "isa/uop.hh"
#include "pipeline/ooo_core.hh"

namespace mopbench
{

/** Host-time totals of the layer replays, summed over streams. */
struct LayerReplay
{
    double memDataNs = 0;
    uint64_t dataAccesses = 0;
    double memInstNs = 0;
    uint64_t instAccesses = 0;  ///< one per fetched instruction line

    double bpredNs = 0;
    uint64_t branches = 0;      ///< conditional branches predicted
    uint64_t mispredicts = 0;   ///< direction mispredictions

    double detectNs = 0;
    uint64_t detectUops = 0;

    double schedInsertNs = 0;
    uint64_t schedInserts = 0;
    double schedTickNs = 0;
    uint64_t schedTicks = 0;
    uint64_t schedUops = 0;     ///< µops that completed in the replay
};

/**
 * Replay @p uops (program order, as a TraceSource produced them)
 * through fresh instances of each layer configured by @p params and
 * add the timings to @p acc. The scheduler sees its loads' latencies
 * from the memory replay. @throws sched::DeadlockError or
 * std::runtime_error if the scheduler replay stops making progress.
 */
void replayLayers(const std::vector<mop::isa::MicroOp> &uops,
                  const mop::pipeline::CoreParams &params,
                  LayerReplay &acc);

} // namespace mopbench

#endif // MOPBENCH_REPLAY_HH
