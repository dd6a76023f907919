// "dqvl-traced": a registry descriptor that wires the same DQVL deployment as
// the builtin "dqvl" (workload/wiring.cpp, headline variant), with Span
// timers around the calls into each layer:
//   * the front end's DqServiceClient (read / write / on_message);
//   * the OqsServer and IqsServer message handlers;
//   * the IQS and OQS quorum systems in DqConfig.
// Its display name is "DQVL", so a correct mirror renders a dq.report.v1 that
// is byte-identical to the untraced "dqvl" run -- the benchmark's passivity
// gate checks exactly that.
#pragma once

namespace e2e {

inline constexpr const char* kTracedProtocol = "dqvl-traced";

// Idempotent.
void register_traced_dqvl();

}  // namespace e2e
