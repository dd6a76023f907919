// Read-time staleness (age of information) computation.
//
// For every completed read we ask: was the returned version already
// superseded by a committed write when the read began -- and for how long?
//
//   stale  iff  version(returned) < max{version(w) : commit(w) <= invoked}
//   age    =    invoked - commit(earliest write with version > returned)
//
// The age is how long the returned value had already been out of date when
// the read started (the Delta-staleness / t-visibility notion from the
// probabilistically-bounded-staleness literature).  Measuring against the
// EARLIEST superseding commit -- rather than the gap between the obliged and
// returned commits -- keeps the age positive and meaningful when commit
// order and version order diverge, which Dynamo's last-writer-wins clocks
// do under partitions: a low-version write can commit in real time AFTER
// the high-version write that beats it.
//
// A protocol with regular semantics (DQVL, majority) always returns the
// latest preceding write or a concurrent one, so every read has age 0; the
// weaker baselines (ROWA-Async gossip, Dynamo sloppy quorums) return stale
// versions under loss and partitions, and the age distribution quantifies
// exactly what they give up ("Minimizing Content Staleness in Dynamo-Style
// Replicated Storage Systems" motivates the metric).
//
// The tracker is fed post-hoc from the experiment's merged operation
// history (a pure computation -- byte-identical at any --jobs or
// --world-threads), and the resulting ages land in an ordinary obs
// histogram, so they ride the dq.report.v1 pipeline unchanged.  Its
// quantiles are within 0.4% of an observed age, and fresh reads' zero ages
// report exactly 0.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/version.h"

namespace dq::obs {

class StalenessTracker {
 public:
  // Record a write of `object` that committed (was acked) at `commit_time`
  // with version `clock`.  Times are any monotonic integer unit (the
  // workload feeds sim::Time ticks).
  void add_write(std::uint64_t object, std::int64_t commit_time,
                 const LogicalClock& clock);

  // Build the per-object indexes; call once, after the last add_write.
  void seal();

  // Age of a read of `object` that began at `invoked` and returned version
  // `clock`.  Zero when the read returned the highest version committed
  // before it began, a newer one, or a concurrent one; otherwise the time
  // the returned version had already been superseded when the read began.
  [[nodiscard]] std::int64_t read_age(std::uint64_t object,
                                      std::int64_t invoked,
                                      const LogicalClock& clock) const;

 private:
  struct Write {
    std::int64_t commit = 0;
    LogicalClock clock;
    // Highest version among writes committed up to and including this one
    // (filled by seal()).  Needed because commit order and version order
    // can diverge: the version a read is obliged to see is the highest
    // VERSION among the preceding commits, not simply the last commit.
    LogicalClock prefix_max;
  };
  // One entry per distinct version, in version order (filled by seal()).
  struct Version {
    LogicalClock clock;
    std::int64_t commit = 0;  // earliest commit of this version
    // Earliest commit among this and all higher versions: the moment every
    // LOWER version became stale.
    std::int64_t superseded_at = 0;
  };
  struct ObjectLog {
    std::vector<Write> by_commit;                    // sorted by seal()
    std::map<LogicalClock, std::int64_t> commit_of;  // version -> commit time
    std::vector<Version> by_version;                 // built by seal()
  };
  std::map<std::uint64_t, ObjectLog> objects_;
  bool sealed_ = false;
};

}  // namespace dq::obs
