// Atomic-semantics service client (paper section 6, future work: "modifying
// DQVL to provide different consistency semantics (e.g. atomic semantics)
// and comparing the cost difference").
//
// Plain DQVL is regular, not atomic: a read may return a concurrent write's
// value from one freshly renewed OQS node while a later read, at a node
// whose (still valid) leases predate that write, returns the older value --
// a new-old inversion.
//
// The classic fix (ABD) is read write-back: before returning (value, lc),
// CONFIRM the value at an IQS write quorum.  processWriteRequest already
// implements exactly the needed semantics for a replayed clock: a DqWrite
// with lc <= lastWriteLC applies nothing but acks only once an OQS write
// quorum is unable to read anything older than lc.  After that, every
// future read observes a clock >= lc, so inversions are impossible.
//
// The cost difference this buys (measured in bench/ablation_atomic.cpp):
// reads are no longer local -- every read pays an IQS write-quorum round
// (~one WAN RTT) on top of the OQS read.  Writes are unchanged.
#pragma once

#include "core/dq_client.h"

namespace dq::core {

// Writes are the plain DQVL writes (already atomic among themselves: the
// LC-read phase orders a write after every completed write); reads add the
// confirmation round on the same engine.
class DqAtomicClient final : public DqClient {
 public:
  using DqClient::DqClient;

  // Atomic read: regular DQVL read, then write-back confirmation.
  void read(ObjectId o, ReadCallback done) override;
};

}  // namespace dq::core
