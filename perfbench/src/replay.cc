#include "replay.hh"

#include <array>
#include <stdexcept>
#include <string>

#include "bpred/bpred.hh"
#include "core/mop_detector.hh"
#include "core/mop_pointer.hh"
#include "harness.hh"
#include "mem/cache.hh"
#include "sched/scheduler.hh"

namespace mopbench
{

namespace
{

using mop::isa::MicroOp;
using mop::isa::OpClass;

constexpr double kNs = 1e9;

/** Instruction-line fetches and data accesses in program order; fills
 *  @p load_lat (indexed like @p uops) with each load's latency. */
void
replayMemory(const std::vector<MicroOp> &uops,
             const mop::pipeline::CoreParams &params,
             std::vector<int> &load_lat, LayerReplay &acc)
{
    mop::mem::MemoryHierarchy mem(params.mem);
    const uint64_t lineBytes = mem.il1().lineBytes();
    std::vector<uint64_t> fetchPcs;
    uint64_t last = ~0ULL;
    for (const MicroOp &u : uops) {
        if (u.pc / lineBytes != last) {
            last = u.pc / lineBytes;
            fetchPcs.push_back(u.pc);
        }
    }
    double t0 = nowSec();
    for (uint64_t pc : fetchPcs)
        mem.instAccess(pc);
    double t1 = nowSec();
    acc.memInstNs += (t1 - t0) * kNs;
    acc.instAccesses += fetchPcs.size();

    load_lat.assign(uops.size(), params.mem.dl1.hitLatency);
    uint64_t n = 0;
    t0 = nowSec();
    for (size_t i = 0; i < uops.size(); ++i) {
        const MicroOp &u = uops[i];
        if (u.op == OpClass::Load) {
            load_lat[i] = mem.dataAccess(u.memAddr, false);
            ++n;
        } else if (u.op == OpClass::StoreData) {
            mem.dataAccess(u.memAddr, true);
            ++n;
        }
    }
    acc.memDataNs += (nowSec() - t0) * kNs;
    acc.dataAccesses += n;
}

/** Predict and train every control op, as fetch does on the right
 *  path. */
void
replayBpred(const std::vector<MicroOp> &uops,
            const mop::pipeline::CoreParams &params, LayerReplay &acc)
{
    std::vector<const MicroOp *> ctrl;
    for (const MicroOp &u : uops)
        if (u.isControl())
            ctrl.push_back(&u);
    mop::bpred::BranchPredictor bp(params.bpred);
    uint64_t wrong = 0;
    double t0 = nowSec();
    for (const MicroOp *u : ctrl) {
        if (u->op == OpClass::Branch) {
            mop::bpred::Prediction pr = bp.predictBranch(u->pc);
            bp.update(u->pc, u->taken, u->target, pr);
            wrong += pr.taken != u->taken;
        } else if (u->op == OpClass::Jump) {
            bp.predictJump(u->pc);
            bp.updateBtb(u->pc, u->target);
            if (u->dst == 30)
                bp.pushRas(u->pc + 4);
        } else {
            uint64_t ras = u->src[0] == 30 ? bp.popRas() : 0;
            mop::bpred::Prediction pr = bp.predictJump(u->pc);
            bp.updateBtb(u->pc, u->target);
            wrong += !(ras == u->target ||
                       (pr.btbHit && pr.target == u->target));
        }
    }
    acc.bpredNs += (nowSec() - t0) * kNs;
    acc.branches += ctrl.size();
    acc.mispredicts += wrong;
}

/** MopDetector::observe per µop, endGroup per rename group. */
void
replayDetector(const std::vector<MicroOp> &uops,
               const mop::pipeline::CoreParams &params, LayerReplay &acc)
{
    mop::core::MopPointerCache cache;
    mop::core::MopDetector det(params.detector, cache);
    const int width = params.renameWidth;
    mop::sched::Cycle now = 0;
    uint64_t id = 0;
    double t0 = nowSec();
    for (const MicroOp &u : uops) {
        if (u.op == OpClass::Nop)
            continue;
        det.observe(u, id);
        if (++id % uint64_t(width) == 0)
            det.endGroup(now++);
    }
    det.drain(now + 64);
    acc.detectNs += (nowSec() - t0) * kNs;
    acc.detectUops += id;
}

/** Rename to tags and push the stream through Scheduler::insert/tick
 *  at the machine's width, queue size and loop policy. */
void
replayScheduler(const std::vector<MicroOp> &uops,
                const mop::pipeline::CoreParams &params,
                const std::vector<int> &load_lat, LayerReplay &acc)
{
    using namespace mop::sched;
    std::vector<SchedOp> ops;
    std::vector<int> opLat;
    std::array<Tag, mop::isa::kNumLogicalRegs> table;
    table.fill(kNoTag);
    Tag next = 0;
    auto srcTag = [&](int16_t r) {
        if (r == mop::isa::kNoReg || r == mop::isa::kZeroReg ||
            r == mop::isa::kFpZeroReg)
            return kNoTag;
        return table[size_t(r)];
    };
    for (size_t i = 0; i < uops.size(); ++i) {
        const MicroOp &u = uops[i];
        if (u.op == OpClass::Nop)
            continue;
        SchedOp op;
        op.seq = ops.size();
        op.op = u.op;
        op.src = {srcTag(u.src[0]), srcTag(u.src[1])};
        if (u.hasDst()) {
            op.dst = next++;
            table[size_t(u.dst)] = op.dst;
        }
        ops.push_back(op);
        opLat.push_back(load_lat[i]);
    }

    SchedParams sp = params.sched;
    sp.mopEnabled = false;  // formation is the pipeline's, not replayed
    Scheduler s(sp);
    s.setLoadLatencyFn([&opLat](uint64_t seq) { return opLat[seq]; });
    std::vector<ExecEvent> completed;
    const int width = params.renameWidth;
    const Cycle limit = Cycle(ops.size()) * 200 + 100000;
    size_t pos = 0;
    uint64_t done = 0;
    double insertNs = 0, tickNs = 0;
    Cycle now = 0;
    while (done < ops.size()) {
        if (now > limit)
            throw std::runtime_error(
                "scheduler replay made no progress for " +
                std::to_string(now) + " cycles");
        double t0 = nowSec();
        for (int w = 0; w < width && pos < ops.size() && s.canInsert(1);
             ++w)
            s.insert(ops[pos++], now);
        double t1 = nowSec();
        completed.clear();
        s.tick(now, completed);
        double t2 = nowSec();
        insertNs += (t1 - t0) * kNs;
        tickNs += (t2 - t1) * kNs;
        done += completed.size();
        ++now;
    }
    acc.schedInsertNs += insertNs;
    acc.schedInserts += ops.size();
    acc.schedTickNs += tickNs;
    acc.schedTicks += now;
    acc.schedUops += done;
}

} // namespace

void
replayLayers(const std::vector<MicroOp> &uops,
             const mop::pipeline::CoreParams &params, LayerReplay &acc)
{
    std::vector<int> loadLat;
    replayMemory(uops, params, loadLat, acc);
    replayBpred(uops, params, acc);
    replayDetector(uops, params, acc);
    replayScheduler(uops, params, loadLat, acc);
}

} // namespace mopbench
