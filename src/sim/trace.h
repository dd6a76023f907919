// Structured protocol tracing.
//
// When enabled, the world records network-level events automatically and
// protocol code emits decision points (read hit/miss, write suppress/
// through, lease grants, delayed-invalidation queueing, epoch bumps,
// recovery).  Each event is one fixed-size TraceEvent: a TraceKind plus up
// to one peer node and two integer arguments.  The category ("net", "read",
// ...) follows from the kind, and render() in trace.cpp is the one place
// that turns a record into text.  Traces are the debugging surface for
// protocol work: the trace_explorer example prints one, and tests assert on
// recorded kinds instead of inferring them from message counts.
//
// Disabled (the default) the cost is one branch per emit site.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "sim/time.h"

namespace dq::sim {

// One value per decision point; trace.cpp holds each kind's category and
// detail format (which of peer, a and b it prints).
enum class TraceKind : std::uint8_t {
  kNetSend, kNetReply,  // peer = destination, a = payload variant index
  kFaultCrash, kFaultRestart,
  kReadHit, kReadMiss, kWriteSuppress, kWriteThrough,  // a = object
  kLeaseGrant,    // peer = holder, a = volume, b = delayed invalidations
  kDelayedInval,  // peer = holder, a = object
  kEpochBump,     // peer = holder, a = volume, b = new epoch
  kRecovery,      // a = replayed WAL records, b = epochs bumped
};

struct TraceEvent {
  Time at = 0;
  NodeId node;
  TraceKind kind = TraceKind::kNetSend;
  NodeId peer;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);

class Tracer {
 public:
  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void emit(const TraceEvent& e) {
    if (enabled_) events_.push_back(e);
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

  // Events matching a category (empty = all), most recent last.
  [[nodiscard]] std::vector<TraceEvent> filter(
      std::string_view category) const;
  [[nodiscard]] std::size_t count(std::string_view category) const {
    return filter(category).size();
  }
  [[nodiscard]] std::size_t count(TraceKind kind) const {
    return static_cast<std::size_t>(std::count_if(
        events_.begin(), events_.end(),
        [kind](const TraceEvent& e) { return e.kind == kind; }));
  }

  // Renders the last `last_n` events of a category (empty = all), one
  // "[<ms> ms] n<node> <category>: <detail>" line each.
  void dump(std::ostream& os, std::string_view category = {},
            std::size_t last_n = SIZE_MAX) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace dq::sim
