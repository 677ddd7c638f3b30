#include "core/mop_formation.hh"

#include <algorithm>
#include <string>

namespace mop::core
{

sched::Tag
Formation::allocTag()
{
    if (!parked_.empty()) {
        // Reclaim, in park order, every parked tag no entry names now.
        size_t kept = 0;
        for (sched::Tag t : parked_) {
            if (pool_.named(t))
                parked_[kept++] = t;
            else
                free_.push_back(t);
        }
        parked_.resize(kept);
    }
    if (!free_.empty()) {
        sched::Tag t = free_.back();
        free_.pop_back();
        return t;
    }
    if (next_ >= pool_.capacity) {
        pool_.integrity->fail(
            verify::IntegrityChecker::Check::TagLiveness,
            "tag pool exhausted: all " + std::to_string(pool_.capacity) +
                " tags live (" + std::to_string(parked_.size()) +
                " parked behind issue-queue entries)");
    }
    holds_.push_back(0);
    return next_++;
}

void
Formation::releaseTag(sched::Tag t)
{
    if (t < 0)
        return;
    uint32_t &h = holds_[size_t(t)];
    pool_.integrity->require(h > 0,
                             verify::IntegrityChecker::Check::TagLiveness,
                             [t] {
                                 return "tag " + std::to_string(t) +
                                        " released with no hold left";
                             });
    if (--h != 0)
        return;
    if (pool_.named(t))
        parked_.push_back(t);
    else
        free_.push_back(t);
}

void
Formation::restoreToCheckpoint()
{
    // Hold the restored mappings before dropping the squashed ones: a
    // restored tag may be held otherwise only by the squashed µop that
    // displaced it.
    for (size_t r = 0; r < table_.size(); ++r) {
        if (table_[r] != ckptTable_[r])
            holdTag(ckptTable_[r]);
    }
    for (size_t r = 0; r < table_.size(); ++r) {
        if (table_[r] != ckptTable_[r])
            releaseTag(table_[r]);
    }
    table_ = ckptTable_;
}

sched::Tag
Formation::remapDemoted(const isa::MicroOp &u)
{
    if (!u.hasDst())
        return sched::kNoTag;
    sched::Tag t = allocTag();
    sched::Tag was = table_[size_t(u.dst)];
    holdTag(t);
    table_[size_t(u.dst)] = t;
    releaseTag(was);
    return t;
}

MopFormation::MopFormation(bool grouping_enabled, MopPointerCache &cache,
                           TagPoolBinding pool, int max_mop_size)
    : Formation(grouping_enabled, std::move(pool)), cache_(cache),
      maxMopSize_(max_mop_size)
{
}

sched::Tag
Formation::translateSrc(int16_t reg) const
{
    if (reg == isa::kNoReg || reg == isa::kZeroReg ||
        reg == isa::kFpZeroReg) {
        return sched::kNoTag;
    }
    return table_[size_t(reg)];
}

FormOutcome
MopFormation::process(const isa::MicroOp &u, uint64_t dyn_id)
{
    FormOutcome out;
    out.src = {translateSrc(u.src[0]), translateSrc(u.src[1])};

    // 1. Is this µop the expected tail of a pending head?
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->tailDynId != dyn_id)
            continue;
        PendingHead p = *it;
        pending_.erase(it);
        if (u.pc == p.tailPc && u.isMopCandidate() && p.entry >= 0) {
            out.role = FormOutcome::Role::Tail;
            out.headEntry = p.entry;
            out.headDynId = p.headDynId;
            out.independent = p.independent;
            out.dst = p.mopTag;
            if (u.hasDst())
                out.prevTag = mapDst(u.dst, p.mopTag);
            ++groupsFormed_;
            if (p.independent)
                ++independentFormed_;
            // Chain extension: this link's own pointer names the next
            // one, and the entry has room (Section 4.3).
            if (p.sizeSoFar + 1 < maxMopSize_) {
                MopPointer next = cache_.lookup(u.pc);
                bool ok = next.valid() && next.chainSafe;
                uint64_t next_tail = dyn_id + next.offset;
                for (const auto &q : pending_)
                    ok = ok && q.tailDynId != next_tail;
                if (ok) {
                    pending_.push_back(PendingHead{
                        p.headDynId, next_tail, next.tailPc, p.mopTag,
                        p.entry, 0, false, p.sizeSoFar + 1});
                    out.moreExpected = true;
                }
            }
            return out;
        }
        // Control flow diverged from the pointer's expectation: do not
        // group with an unexpected instruction (Section 5.2.1). The
        // head's entry loses its pending bit and issues solo.
        ++verifyFails_;
        out.clearPendingEntry = p.entry;
        break;
    }

    // 2. Does this µop start a MOP (valid pointer fetched with it)?
    if (enabled_) {
        MopPointer ptr = cache_.lookup(u.pc);
        bool eligible = ptr.valid() && u.isMopCandidate() &&
                        (ptr.independent || u.isValueGenCandidate());
        if (eligible && inj_ &&
            inj_->fire(verify::FaultKind::CorruptMop)) {
            // Pointer-storage corruption: either the pointer is lost
            // (forced dissolution; the pair issues as two plain ops)
            // or it names the wrong tail. A wrong tail must be caught
            // by the pending-tail PC verification or the group-window
            // expiry -- both end in clearPending(), never a bad fuse.
            if (inj_->pick(2) == 0) {
                eligible = false;
            } else {
                ptr.offset = uint8_t(1 + inj_->pick(7));
                ptr.tailPc ^= 0x40;
            }
        }
        if (eligible) {
            uint64_t tail_id = dyn_id + ptr.offset;
            for (const auto &p : pending_)
                eligible = eligible && p.tailDynId != tail_id;
        }
        if (eligible) {
            out.role = FormOutcome::Role::Head;
            out.independent = ptr.independent;
            sched::Tag m = allocTag();
            out.dst = m;  // the MOP's scheduling tag, even for heads
                          // with no architectural destination
            if (u.hasDst())
                out.prevTag = mapDst(u.dst, m);
            pending_.push_back(PendingHead{dyn_id, dyn_id + ptr.offset,
                                           ptr.tailPc, m, -1, 0,
                                           ptr.independent});
            return out;
        }
    }

    // 3. Ordinary instruction: fresh tag per destination.
    out.role = FormOutcome::Role::Single;
    if (u.hasDst()) {
        out.dst = allocTag();
        out.prevTag = mapDst(u.dst, out.dst);
    }
    return out;
}

void
MopFormation::setHeadEntry(uint64_t head_dyn_id, int entry)
{
    for (auto &p : pending_)
        if (p.headDynId == head_dyn_id)
            p.entry = entry;
}

sched::Tag
MopFormation::demoteTail(const isa::MicroOp &u, int entry)
{
    if (entry >= 0) {
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->entry == entry)
                it = pending_.erase(it);
            else
                ++it;
        }
    }
    ++demotions_;
    return remapDemoted(u);
}

std::vector<int>
MopFormation::groupBoundary()
{
    std::vector<int> expired;
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (++it->groupAge > 1) {
            // The tail is not in the same or the next insert group:
            // abandon the pairing (Figure 11's policy).
            if (it->entry >= 0)
                expired.push_back(it->entry);
            ++pendingExpired_;
            it = pending_.erase(it);
        } else {
            ++it;
        }
    }
    return expired;
}

} // namespace mop::core
