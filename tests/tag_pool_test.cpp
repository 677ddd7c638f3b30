/**
 * @file
 * Bounded tag space, end to end: the core's Formation recycles tags
 * like physical registers, so a long run never mints more than
 * kNumLogicalRegs + robSize tag ids, and tiny-ROB kernel runs with
 * wrong-path execution reuse every tag many times while the golden
 * model, the dataflow invariant and the scheduler's TagLiveness check
 * (a redefined tag must have no issue-queue consumers) all stay clean.
 */

#include <gtest/gtest.h>

#include "pipeline/ooo_core.hh"
#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sched/policy.hh"
#include "sim/config.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"
#include "trace/wrong_path.hh"
#include "verify/golden.hh"

namespace
{

using namespace mop;
using sim::Machine;
using sim::RunConfig;

uint64_t
violations(const pipeline::OooCore &core)
{
    return core.integrity().totalViolations() +
           core.scheduler().integrity().totalViolations();
}

TEST(TagPool, LongWrongPathRunStaysUnderRenameBound)
{
    RunConfig cfg;
    cfg.machine = Machine::MopWiredOr;
    cfg.iqEntries = 128;
    cfg.wrongPath = true;
    trace::WorkloadProfile prof = trace::profileFor("gzip");
    trace::SyntheticSource src(prof);
    pipeline::CoreParams params = sim::makeCoreParams(cfg);
    params.wrongPathSeed = trace::wrongPathSeed(prof.seed);
    pipeline::OooCore core(params, src);
    pipeline::SimResult r = core.run(1'000'000);

    EXPECT_GE(r.insts, 1'000'000u);
    EXPECT_EQ(violations(core), 0u);
    // Ids are minted only when no freed tag is left, so the minted
    // count is the peak number of live tags.
    int minted = core.formation().tagsMinted();
    EXPECT_LE(minted, isa::kNumLogicalRegs + params.robSize);
    EXPECT_GT(r.uops, 1000u * uint64_t(minted));
}

/** Every kernel on a ROB of 8 with wrong-path execution: each tag is
 *  recycled many times, wrong-path tags included, with the golden
 *  cross-check on. */
class TagRecycleKernel : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TagRecycleKernel, TinyRobRecyclesTagsCleanly)
{
    struct Config
    {
        Machine machine;
        sched::PolicyId policy;
    };
    const Config configs[] = {
        {Machine::Base, sched::PolicyId::Paper},
        {Machine::SelectFreeScoreboard, sched::PolicyId::Paper},
        {Machine::MopCam, sched::PolicyId::Paper},
        {Machine::MopWiredOr, sched::PolicyId::Paper},
        {Machine::MopWiredOr, sched::PolicyId::LoadDelay},
        {Machine::MopWiredOr, sched::PolicyId::StaticFuse},
    };
    for (const Config &c : configs) {
        SCOPED_TRACE(std::string(sim::machineName(c.machine)) + "/" +
                     sched::policyIdToken(c.policy));
        prog::Program p = prog::assemble(prog::kernelSource(GetParam()));
        prog::Interpreter src(p);
        verify::GoldenModel golden(p);
        RunConfig cfg;
        cfg.machine = c.machine;
        cfg.policy = c.policy;
        cfg.iqEntries = 16;
        cfg.wrongPath = true;
        pipeline::CoreParams params = sim::makeCoreParams(cfg);
        params.robSize = 8;
        pipeline::OooCore core(params, src);
        core.setGoldenModel(&golden);
        pipeline::SimResult r = core.run(10'000'000);

        EXPECT_GT(r.mispredicts, 0u);  // wrong-path tags were squashed
        EXPECT_EQ(golden.compared(), r.uops);
        EXPECT_EQ(violations(core), 0u);
        int minted = core.formation().tagsMinted();
        EXPECT_LE(minted, isa::kNumLogicalRegs + params.robSize);
        EXPECT_GE(r.uops, 4u * uint64_t(minted))
            << r.uops << " µops renamed onto " << minted << " tags";
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, TagRecycleKernel,
                         ::testing::ValuesIn(prog::kernelNames()));

} // namespace
