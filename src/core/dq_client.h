// Service-client library for the dual-quorum store.
//
// Reads go to an OQS read quorum; the reply with the highest logical clock
// wins.  Writes are two QRPC phases against the IQS, exactly as in the
// paper: (1) read the highest logical clock from an IQS read quorum,
// (2) advance it and send the write to an IQS write quorum.
//
// The client is a component embedded in a host actor (a front-end edge
// server, or a workload client in direct-access experiments); the host
// forwards envelopes to on_message.
#pragma once

#include <memory>

#include "common/ids.h"
#include "common/version.h"
#include "core/config.h"
#include "rpc/register_client.h"
#include "sim/world.h"

namespace dq::core {

class DqClient : public rpc::RegisterClient {
 public:
  DqClient(sim::World& world, NodeId self,
           std::shared_ptr<const DqConfig> config)
      : RegisterClient(world, self, config->rpc), cfg_(std::move(config)) {}

  // Read `o`: QRPC to an OQS read quorum; returns the highest-clock reply.
  void read(ObjectId o, ReadCallback done) override;

  // Write `value` to `o`: LC-read phase then write phase, both on the IQS.
  void write(ObjectId o, Value value, WriteCallback done) override;

 protected:
  std::shared_ptr<const DqConfig> cfg_;
};

}  // namespace dq::core
