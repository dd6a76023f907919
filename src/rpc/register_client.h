// The service-client interface, and the register operations every
// quorum-based client builds it from (paper sections 2 and 3.1).
//
// Every replication protocol in the repository exposes the same read/write
// register API to the service layer (ServiceClient), so the workload
// driver, the examples, and the consistency checker run unchanged across
// DQVL and the baselines.  The clients themselves differ only in which
// messages they send to which quorum system; the reply handling is one of
// three QRPC shapes:
//
//   read-latest      QRPC(system, READ, read); keep the highest-clock
//                    (value, clock) reply.  On equal clocks the later reply
//                    wins; a failed call still hands over the best reply
//                    gathered so far.
//   acked-write      QRPC(system, WRITE, write); the clock is whatever the
//                    ack carries (the server stamped the write).
//   two-phase write  QRPC(system, READ, lc-read) for the highest clock,
//                    advance max(that, this writer's last issued clock),
//                    then QRPC(system, WRITE, write(clock)).
//
// write_at is the second phase on its own: a write whose clock the caller
// already chose.  Each operation takes an extractor, a one-line
// `std::get_if<msg::X>` that picks the protocol's reply type out of a
// payload, so reply dispatch stays at the protocol's call site.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/ids.h"
#include "common/version.h"
#include "msg/wire.h"
#include "quorum/quorum.h"
#include "rpc/qrpc.h"
#include "sim/world.h"

namespace dq::rpc {

class ServiceClient {
 public:
  using ReadCallback = std::function<void(bool ok, VersionedValue)>;
  using WriteCallback = std::function<void(bool ok, LogicalClock)>;

  virtual ~ServiceClient() = default;

  virtual void read(ObjectId o, ReadCallback done) = 0;
  virtual void write(ObjectId o, Value value, WriteCallback done) = 0;

  // Host actors forward incoming envelopes here; returns true if consumed.
  virtual bool on_message(const sim::Envelope& env) = 0;

  // Abandon in-flight operations (host crashed).
  virtual void cancel_all() = 0;
};

// A ServiceClient over one QRPC engine at `self`.  Subclasses implement
// read/write with the operations below.
class RegisterClient : public ServiceClient {
 public:
  bool on_message(const sim::Envelope& env) override {
    return engine_.on_reply(env);
  }
  void cancel_all() override { engine_.cancel_all(); }

 protected:
  RegisterClient(sim::World& world, NodeId self, QrpcOptions opts)
      : engine_(world, self), opts_(opts), writer_(self.value()) {}

  template <typename Request, typename Extract>
  void read_latest(const quorum::QuorumSystem& system, Request request,
                   Extract extract, ReadCallback done) {
    gather<VersionedValue>(
        system, quorum::Kind::kRead, std::move(request),
        [extract](VersionedValue& best, const msg::Payload& p) {
          const auto* r = extract(p);
          if (r != nullptr && r->clock >= best.clock) {
            best = {r->value, r->clock};
          }
        },
        std::move(done));
  }

  template <typename Request, typename Extract>
  void acked_write(const quorum::QuorumSystem& system, Request request,
                   Extract extract, WriteCallback done) {
    gather<LogicalClock>(
        system, quorum::Kind::kWrite, std::move(request),
        [extract](LogicalClock& lc, const msg::Payload& p) {
          if (const auto* r = extract(p)) lc = r->clock;
        },
        std::move(done));
  }

  // `make_write(clock)` builds the phase-2 request.
  template <typename Request, typename Extract, typename MakeWrite>
  void two_phase_write(const quorum::QuorumSystem& system, Request lc_read,
                       Extract extract, MakeWrite make_write,
                       WriteCallback done) {
    gather<LogicalClock>(
        system, quorum::Kind::kRead, std::move(lc_read),
        [extract](LogicalClock& max_lc, const msg::Payload& p) {
          if (const auto* r = extract(p)) {
            max_lc = std::max(max_lc, r->clock);
          }
        },
        [this, &system, make_write = std::move(make_write),
         done = std::move(done)](bool ok, LogicalClock max_lc) mutable {
          if (!ok) {
            done(false, LogicalClock{});
            return;
          }
          // Advance past our own previously issued clock as well as the
          // quorum maximum: pipelined writes from one writer would
          // otherwise observe the same quorum max and mint identical clocks
          // (writer-id tie-breaking only disambiguates different writers).
          const LogicalClock lc =
              std::max(max_lc, issued_).advanced_by(writer_);
          issued_ = lc;
          write_at(system, make_write(lc), lc, std::move(done));
        });
  }

  // Write `request` (stamped with `lc`) to a write quorum; `done(ok, lc)`.
  template <typename Request, typename Done>
  void write_at(const quorum::QuorumSystem& system, Request request,
                LogicalClock lc, Done done) {
    engine_.call(
        system, quorum::Kind::kWrite, send_each(std::move(request)), nullptr,
        [lc, done = std::move(done)](bool ok) mutable { done(ok, lc); },
        opts_);
  }

  [[nodiscard]] ClientId writer() const { return writer_; }

 private:
  // The same request to every target.
  template <typename Request>
  static QrpcEngine::BuildRequest send_each(Request request) {
    return [request = std::move(request)](
               NodeId) -> std::optional<msg::Payload> { return request; };
  }

  // One QRPC whose replies fold into an accumulator of type Acc, handed to
  // `done(ok, acc)` on completion -- success or not.
  template <typename Acc, typename Request, typename Fold, typename Done>
  void gather(const quorum::QuorumSystem& system, quorum::Kind kind,
              Request request, Fold fold, Done done) {
    auto acc = std::make_shared<Acc>();
    engine_.call(
        system, kind, send_each(std::move(request)),
        [acc, fold = std::move(fold)](NodeId, const msg::Payload& p) {
          fold(*acc, p);
        },
        [acc, done = std::move(done)](bool ok) mutable {
          done(ok, std::move(*acc));
        },
        opts_);
  }

  QrpcEngine engine_;
  QrpcOptions opts_;
  ClientId writer_;
  // Highest clock this writer has issued (two_phase_write).
  LogicalClock issued_;
};

}  // namespace dq::rpc
