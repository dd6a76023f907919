#include "sim/trace.h"

#include <array>
#include <iomanip>

#include "msg/wire.h"

namespace dq::sim {

namespace {

// "<category>: <detail>" per TraceKind, in enum order.  In the detail, %a
// and %b print the integer arguments, %p the peer node id, and %t the name
// of the payload type whose variant index is a.
constexpr std::array<std::string_view, 12> kFormat{{
    "net: send %t -> n%p",
    "net: reply %t -> n%p",
    "fault: crash",
    "fault: restart",
    "read: hit obj %a",
    "read: miss obj %a",
    "write: write-suppress obj %a",
    "write: write-through obj %a",
    "lease: grant vol %a to n%p (%b delayed)",
    "lease: delayed inval for n%p obj %a",
    "lease: epoch bump for n%p vol %a -> %b",
    "recovery: replayed %a records, %b epochs bumped",
}};
static_assert(kFormat.size() ==
              static_cast<std::size_t>(TraceKind::kRecovery) + 1);

std::string_view category(TraceKind kind) {
  const std::string_view f = kFormat.at(static_cast<std::size_t>(kind));
  return f.substr(0, f.find(':'));
}

void render(std::ostream& os, const TraceEvent& e) {
  os << '[' << std::setw(10) << to_ms(e.at) << " ms] n" << e.node.value()
     << ' ';
  const std::string_view f = kFormat.at(static_cast<std::size_t>(e.kind));
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (f[i] != '%') os << f[i];
    else if (f[++i] == 'a') os << e.a;
    else if (f[i] == 'b') os << e.b;
    else if (f[i] == 'p') os << e.peer.value();
    else os << msg::payload_type_name(e.a);  // %t
  }
  os << '\n';
}

}  // namespace

std::vector<TraceEvent> Tracer::filter(std::string_view cat) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (cat.empty() || category(e.kind) == cat) out.push_back(e);
  }
  return out;
}

void Tracer::dump(std::ostream& os, std::string_view cat,
                  std::size_t last_n) const {
  const auto sel = filter(cat);
  const std::size_t skip = sel.size() - std::min(last_n, sel.size());
  for (std::size_t i = skip; i < sel.size(); ++i) render(os, sel[i]);
}

}  // namespace dq::sim
