/**
 * @file
 * A guided tour of the macro-op machinery, following the paper's own
 * worked examples: MOP detection over a dependence matrix (Figure 9),
 * the cycle heuristic (Figure 8), dependence translation into the
 * MOP-ID name space (Figure 10), and the resulting wakeup/select
 * timing (Figure 5).
 */

#include <iostream>

#include "core/matrix_render.hh"
#include "core/mop_detector.hh"
#include "core/mop_formation.hh"
#include "sched/scheduler.hh"

using namespace mop;
using isa::MicroOp;
using isa::OpClass;

namespace
{

constexpr uint64_t kPc = 0x400000;

MicroOp
mk(uint64_t idx, OpClass op, int dst, int s0 = -1, int s1 = -1)
{
    MicroOp u;
    u.pc = kPc + 4 * idx;
    u.op = op;
    u.dst = int16_t(dst);
    u.src = {int16_t(s0), int16_t(s1)};
    return u;
}

void
describePointer(const core::MopPointerCache &cache, uint64_t idx)
{
    core::MopPointer p = cache.lookup(kPc + 4 * idx);
    std::cout << "  I" << idx + 1 << ": ";
    if (!p.valid()) {
        std::cout << "no MOP pointer\n";
        return;
    }
    std::cout << "MOP pointer -> I" << idx + 1 + p.offset
              << " (offset " << int(p.offset) << ", ctrl "
              << p.ctrl << (p.independent ? ", independent" : "")
              << ")\n";
}

} // namespace

int
main()
{
    std::cout << "== 1. MOP detection (Figure 9) ==\n"
              << "Stream: I1: add r1<-...   I2: lw r2<-[r1]\n"
              << "        I3: add r3<-r1,r2 I4: add r4<-r1\n";
    core::MopPointerCache cache;
    core::DetectorParams dp;
    dp.detectLatency = 0;
    core::MopDetector det(dp, cache);
    det.observe(mk(0, OpClass::IntAlu, 1), 0);
    det.observe(mk(1, OpClass::Load, 2, 1), 1);
    det.observe(mk(2, OpClass::IntAlu, 3, 1, 2), 2);
    det.observe(mk(3, OpClass::IntAlu, 4, 1), 3);
    det.endGroup(1);
    det.drain(10);
    {
        std::vector<core::MatrixSlot> win = {
            {mk(0, OpClass::IntAlu, 1), true, false},
            {mk(1, OpClass::Load, 2, 1), false, false},
            {mk(2, OpClass::IntAlu, 3, 1, 2), false, false},
            {mk(3, OpClass::IntAlu, 4, 1), false, true},
        };
        std::cout << core::renderMatrix(win);
    }
    std::cout << "I1's column: the load I2 is not a candidate; I3's "
                 "\"2\" mark is not first in\nthe column (cycle "
                 "heuristic, Figure 8c); the \"1\" mark of I4 is "
                 "safe:\n";
    describePointer(cache, 0);
    std::cout << "cycle-heuristic rejections so far: "
              << det.cycleRejects() << "\n\n";

    std::cout << "== 2. Dependence translation (Figure 10) ==\n"
              << "I1: SUB r3<-r1  I2: ADD r4<-r3   (MOP m1)\n"
              << "I3: NOT r5<-r3  I4: XOR r6<-r2,r5 (MOP m2)\n";
    core::MopPointerCache cache2;
    {
        core::MopPointer p;
        p.offset = 1;
        p.tailPc = kPc + 4;
        cache2.write(kPc, p);
        p.tailPc = kPc + 12;
        cache2.write(kPc + 8, p);
    }
    // No commit feeds tags back here, so the pool only hands out
    // fresh ones and never asks whether an entry still names a tag.
    verify::IntegrityChecker integrity;
    core::MopFormation form(true, cache2,
                            {64, [](sched::Tag) { return false; },
                             &integrity});
    auto o1 = form.process(mk(0, OpClass::IntAlu, 3, 1), 0);
    form.setHeadEntry(0, 0);
    auto o2 = form.process(mk(1, OpClass::IntAlu, 4, 3), 1);
    auto o3 = form.process(mk(2, OpClass::IntAlu, 5, 3), 2);
    form.setHeadEntry(2, 1);
    auto o4 = form.process(mk(3, OpClass::IntAlu, 6, 2, 5), 3);
    std::cout << "  I1 -> MOP id m" << o1.dst << " (head)\n"
              << "  I2 -> MOP id m" << o2.dst
              << " (tail; same id, internal edge elided)\n"
              << "  I3 -> MOP id m" << o3.dst << ", source m"
              << o3.src[0] << " (r3 now names MOP m" << o3.src[0]
              << ")\n"
              << "  I4 -> MOP id m" << o4.dst << ", sources [m"
              << o4.src[1] << "]\n\n";

    std::cout << "== 3. Scheduling timing (Figure 5) ==\n"
              << "1: add r1  2: lw r4<-0(r1)  3: sub r5<-r1  "
                 "4: bez r5\n";
    auto timing = [](bool mop) {
        sched::SchedParams sp;
        sp.policy = sched::LoopPolicy::TwoCycle;
        sp.mopEnabled = mop;
        sp.numEntries = 16;
        sched::Scheduler s(sp);
        sched::Cycle now = 0;
        auto op = [](uint64_t seq, OpClass c, sched::Tag d,
                     sched::Tag s0 = sched::kNoTag) {
            sched::SchedOp o;
            o.seq = seq;
            o.op = c;
            o.dst = d;
            o.src = {s0, sched::kNoTag};
            return o;
        };
        if (mop) {
            int e = s.insert(op(1, OpClass::IntAlu, 1), now, true);
            s.appendTail(e, op(3, OpClass::IntAlu, 1, 1), now);
        } else {
            s.insert(op(1, OpClass::IntAlu, 1), now);
            s.insert(op(3, OpClass::IntAlu, 5, 1), now);
        }
        s.insert(op(2, OpClass::Load, 4, 1), now);
        s.insert(op(4, OpClass::Branch, sched::kNoTag, mop ? 1 : 5),
                 now);
        s.setLoadLatencyFn([](uint64_t) { return 2; });
        std::vector<sched::ExecEvent> done;
        while (s.occupancy() > 0 && now < 100) {
            std::vector<sched::ExecEvent> evs;
            s.tick(now, evs);
            for (auto &ev : evs)
                done.push_back(ev);
            ++now;
        }
        for (const auto &ev : done)
            std::cout << "    insn " << ev.seq << " selected at cycle "
                      << ev.issued << "\n";
    };
    std::cout << "  2-cycle scheduling (one bubble per edge):\n";
    timing(false);
    std::cout << "  2-cycle macro-op scheduling, MOP(1,3): insn 4 "
                 "(tail consumer) issues\n  consecutively; insn 2 "
                 "(head consumer) keeps 2-cycle timing:\n";
    timing(true);
    return 0;
}
