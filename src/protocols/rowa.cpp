#include "protocols/rowa.h"

#include <algorithm>
#include <utility>

#include "sim/processing.h"

namespace dq::protocols {

bool RowaServer::on_message(const sim::Envelope& env) {
  if (!std::holds_alternative<msg::RowaRead>(env.body) &&
      !std::holds_alternative<msg::RowaWrite>(env.body)) {
    return false;
  }
  sim::defer_processing(world_, self_, [this, env] { handle(env); });
  return true;
}

void RowaServer::handle(const sim::Envelope& env) {
  if (const auto* m = std::get_if<msg::RowaRead>(&env.body)) {
    m_reads_->inc();
    const VersionedValue vv = store_.get(m->object);
    world_.reply(self_, env,
                 msg::RowaReadReply{m->object, vv.value, vv.clock});
  } else if (const auto* m = std::get_if<msg::RowaWrite>(&env.body)) {
    m_writes_->inc();
    store_.apply(m->object, m->value, m->clock);
    world_.reply(self_, env,
                 msg::RowaWriteAck{m->object, m->clock});
  }
}

void RowaClient::read(ObjectId o, ReadCallback done) {
  read_latest(
      *system_, msg::RowaRead{o},
      [this](const msg::Payload& p) {
        const auto* r = std::get_if<msg::RowaReadReply>(&p);
        if (r != nullptr) seen_ = std::max(seen_, r->clock);
        return r;
      },
      std::move(done));
}

void RowaClient::write(ObjectId o, Value value, WriteCallback done) {
  // One round trip: stamp from the colocated replica's clock (see header).
  LogicalClock base = seen_;
  if (local_ != nullptr) base = std::max(base, local_->store().clock_of(o));
  const LogicalClock lc = base.advanced_by(writer());
  seen_ = std::max(seen_, lc);
  write_at(*system_, msg::RowaWrite{o, std::move(value), lc}, lc,
           std::move(done));
}

}  // namespace dq::protocols
