#include "core/dq_client.h"

#include <utility>

namespace dq::core {

void DqClient::read(ObjectId o, ReadCallback done) {
  read_latest(
      *cfg_->oqs, msg::DqRead{o},
      [](const msg::Payload& p) { return std::get_if<msg::DqReadReply>(&p); },
      std::move(done));
}

void DqClient::write(ObjectId o, Value value, WriteCallback done) {
  two_phase_write(
      *cfg_->iqs, msg::DqLcRead{o},
      [](const msg::Payload& p) { return std::get_if<msg::DqLcReadReply>(&p); },
      [o, value = std::move(value)](LogicalClock lc) {
        return msg::DqWrite{o, value, lc};
      },
      std::move(done));
}

}  // namespace dq::core
