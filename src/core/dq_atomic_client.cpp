#include "core/dq_atomic_client.h"

#include <utility>

namespace dq::core {

void DqAtomicClient::read(ObjectId o, ReadCallback done) {
  DqClient::read(o, [this, o, done = std::move(done)](
                        bool ok, VersionedValue vv) mutable {
    // Nothing to confirm for a failed read or the initial value (no write
    // to stabilize).
    if (!ok || vv.clock == LogicalClock::zero()) {
      done(ok, std::move(vv));
      return;
    }
    // Confirmation phase: replay the (value, clock) to an IQS write quorum.
    // Each member acks only once an OQS write quorum can no longer read
    // anything older, making the returned value stable.
    write_at(*cfg_->iqs, msg::DqWrite{o, vv.value, vv.clock}, vv.clock,
             [vv, done = std::move(done)](bool ok2, LogicalClock) mutable {
               done(ok2, std::move(vv));
             });
  });
}

}  // namespace dq::core
