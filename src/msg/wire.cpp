#include "msg/wire.h"

#include <array>

namespace dq::msg {

namespace {

// Visitor with one overload per alternative keeps the names next to the
// types they describe and fails to compile if an alternative is added
// without a name.
struct NameOf {
  const char* operator()(const AppRequest&) const { return "AppRequest"; }
  const char* operator()(const AppReply&) const { return "AppReply"; }
  const char* operator()(const DqLcRead&) const { return "DqLcRead"; }
  const char* operator()(const DqLcReadReply&) const { return "DqLcReadReply"; }
  const char* operator()(const DqWrite&) const { return "DqWrite"; }
  const char* operator()(const DqWriteAck&) const { return "DqWriteAck"; }
  const char* operator()(const DqRead&) const { return "DqRead"; }
  const char* operator()(const DqReadReply&) const { return "DqReadReply"; }
  const char* operator()(const DqVolRenew&) const { return "DqVolRenew"; }
  const char* operator()(const DqVolRenewReply&) const {
    return "DqVolRenewReply";
  }
  const char* operator()(const DqVolRenewAck&) const { return "DqVolRenewAck"; }
  const char* operator()(const DqVolRenewBatch&) const {
    return "DqVolRenewBatch";
  }
  const char* operator()(const DqVolRenewBatchReply&) const {
    return "DqVolRenewBatchReply";
  }
  const char* operator()(const DqVolRenewAckBatch&) const {
    return "DqVolRenewAckBatch";
  }
  const char* operator()(const DqObjRenew&) const { return "DqObjRenew"; }
  const char* operator()(const DqObjRenewReply&) const {
    return "DqObjRenewReply";
  }
  const char* operator()(const DqVolFetch&) const { return "DqVolFetch"; }
  const char* operator()(const DqVolFetchReply&) const {
    return "DqVolFetchReply";
  }
  const char* operator()(const DqVolObjRenew&) const { return "DqVolObjRenew"; }
  const char* operator()(const DqVolObjRenewReply&) const {
    return "DqVolObjRenewReply";
  }
  const char* operator()(const DqInval&) const { return "DqInval"; }
  const char* operator()(const DqInvalAck&) const { return "DqInvalAck"; }
  const char* operator()(const MajRead&) const { return "MajRead"; }
  const char* operator()(const MajReadReply&) const { return "MajReadReply"; }
  const char* operator()(const MajLcRead&) const { return "MajLcRead"; }
  const char* operator()(const MajLcReadReply&) const {
    return "MajLcReadReply";
  }
  const char* operator()(const MajWrite&) const { return "MajWrite"; }
  const char* operator()(const MajWriteAck&) const { return "MajWriteAck"; }
  const char* operator()(const PbRead&) const { return "PbRead"; }
  const char* operator()(const PbReadReply&) const { return "PbReadReply"; }
  const char* operator()(const PbWrite&) const { return "PbWrite"; }
  const char* operator()(const PbWriteAck&) const { return "PbWriteAck"; }
  const char* operator()(const PbSync&) const { return "PbSync"; }
  const char* operator()(const PbSyncAck&) const { return "PbSyncAck"; }
  const char* operator()(const RowaRead&) const { return "RowaRead"; }
  const char* operator()(const RowaReadReply&) const { return "RowaReadReply"; }
  const char* operator()(const RowaWrite&) const { return "RowaWrite"; }
  const char* operator()(const RowaWriteAck&) const { return "RowaWriteAck"; }
  const char* operator()(const AsyncRead&) const { return "AsyncRead"; }
  const char* operator()(const AsyncReadReply&) const {
    return "AsyncReadReply";
  }
  const char* operator()(const AsyncWrite&) const { return "AsyncWrite"; }
  const char* operator()(const AsyncWriteAck&) const { return "AsyncWriteAck"; }
  const char* operator()(const GossipUpdate&) const { return "GossipUpdate"; }
  const char* operator()(const AeDigest&) const { return "AeDigest"; }
  const char* operator()(const AeUpdates&) const { return "AeUpdates"; }
  const char* operator()(const HermesWrite&) const { return "HermesWrite"; }
  const char* operator()(const HermesWriteAck&) const {
    return "HermesWriteAck";
  }
  const char* operator()(const HermesRead&) const { return "HermesRead"; }
  const char* operator()(const HermesReadReply&) const {
    return "HermesReadReply";
  }
  const char* operator()(const HermesInv&) const { return "HermesInv"; }
  const char* operator()(const HermesInvAck&) const { return "HermesInvAck"; }
  const char* operator()(const HermesVal&) const { return "HermesVal"; }
  const char* operator()(const HermesValAck&) const { return "HermesValAck"; }
  const char* operator()(const DynRead&) const { return "DynRead"; }
  const char* operator()(const DynReadReply&) const { return "DynReadReply"; }
  const char* operator()(const DynWrite&) const { return "DynWrite"; }
  const char* operator()(const DynWriteAck&) const { return "DynWriteAck"; }
  const char* operator()(const DynHandoff&) const { return "DynHandoff"; }
  const char* operator()(const DynHandoffAck&) const {
    return "DynHandoffAck";
  }
  const char* operator()(const DynRepair&) const { return "DynRepair"; }
};

template <std::size_t... I>
std::array<const char*, sizeof...(I)> make_type_names(
    std::index_sequence<I...>) {
  // Reuses NameOf so an alternative added without a name still fails to
  // compile; the default-constructed instances exist only during this
  // one-time table build.
  return {NameOf{}(std::variant_alternative_t<I, Payload>{})...};
}

}  // namespace

const char* payload_type_name(std::size_t index) {
  static const std::array<const char*, payload_type_count()> kNames =
      make_type_names(std::make_index_sequence<payload_type_count()>{});
  return index < kNames.size() ? kNames[index] : "?";
}

namespace {

// Sizing building blocks (serialized-representation estimates).
constexpr std::size_t kHeader = 32;      // src, dst, rpc id, type tag, flags
constexpr std::size_t kId = 8;           // object / volume id
constexpr std::size_t kClock = 12;       // logical clock (counter + writer)
constexpr std::size_t kTime = 8;         // timestamps, durations, epochs

std::size_t sized(std::size_t body) { return kHeader + body; }

struct SizeOf {
  std::size_t operator()(const AppRequest& m) const {
    return sized(1 + kId + m.value.size());
  }
  std::size_t operator()(const AppReply& m) const {
    return sized(1 + kId + kClock + m.value.size());
  }
  std::size_t operator()(const DqLcRead&) const { return sized(kId); }
  std::size_t operator()(const DqLcReadReply&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const DqWrite& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const DqWriteAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const DqRead&) const { return sized(kId); }
  std::size_t operator()(const DqReadReply& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const DqVolRenew&) const {
    return sized(kId + kTime);
  }
  std::size_t operator()(const DqVolRenewReply& m) const {
    return sized(kId + 3 * kTime + m.delayed.size() * (kId + kClock));
  }
  std::size_t operator()(const DqVolRenewAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const DqVolRenewBatch& m) const {
    return sized(m.renewals.size() * (kId + kTime));
  }
  std::size_t operator()(const DqVolRenewBatchReply& m) const {
    std::size_t total = 0;
    for (const auto& r : m.replies) {
      total += kId + 3 * kTime + r.delayed.size() * (kId + kClock);
    }
    return sized(total);
  }
  std::size_t operator()(const DqVolRenewAckBatch& m) const {
    return sized(m.acks.size() * (kId + kClock));
  }
  std::size_t operator()(const DqObjRenew&) const {
    return sized(kId + kTime);
  }
  std::size_t operator()(const DqObjRenewReply& m) const {
    return sized(kId + kClock + 3 * kTime + m.value.size());
  }
  std::size_t operator()(const DqVolFetch&) const {
    return sized(kId + kTime);
  }
  std::size_t operator()(const DqVolFetchReply& m) const {
    std::size_t total = SizeOf{}(m.vol) - kHeader;
    for (const auto& o : m.objects) {
      total += kId + kClock + 3 * kTime + o.value.size();
    }
    return sized(total);
  }
  std::size_t operator()(const DqVolObjRenew&) const {
    return sized(2 * kId + kTime);
  }
  std::size_t operator()(const DqVolObjRenewReply& m) const {
    return SizeOf{}(m.vol) + SizeOf{}(m.obj) - kHeader;  // one envelope
  }
  std::size_t operator()(const DqInval&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const DqInvalAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const MajRead&) const { return sized(kId); }
  std::size_t operator()(const MajReadReply& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const MajLcRead&) const { return sized(kId); }
  std::size_t operator()(const MajLcReadReply&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const MajWrite& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const MajWriteAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const PbRead&) const { return sized(kId); }
  std::size_t operator()(const PbReadReply& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const PbWrite& m) const {
    return sized(kId + m.value.size());
  }
  std::size_t operator()(const PbWriteAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const PbSync& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const PbSyncAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const RowaRead&) const { return sized(kId); }
  std::size_t operator()(const RowaReadReply& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const RowaWrite& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const RowaWriteAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const AsyncRead&) const { return sized(kId); }
  std::size_t operator()(const AsyncReadReply& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const AsyncWrite& m) const {
    return sized(kId + m.value.size());
  }
  std::size_t operator()(const AsyncWriteAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const GossipUpdate& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const AeDigest& m) const {
    return sized(m.entries.size() * (kId + kClock));
  }
  std::size_t operator()(const AeUpdates& m) const {
    std::size_t total = 0;
    for (const auto& u : m.updates) {
      total += kId + kClock + u.value.size();
    }
    return sized(total);
  }
  std::size_t operator()(const HermesWrite& m) const {
    return sized(kId + m.value.size());
  }
  std::size_t operator()(const HermesWriteAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const HermesRead&) const { return sized(kId); }
  std::size_t operator()(const HermesReadReply& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const HermesInv& m) const {
    return sized(kId + kClock + kTime + m.value.size());
  }
  std::size_t operator()(const HermesInvAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const HermesVal&) const {
    return sized(kId + kClock + kTime);
  }
  std::size_t operator()(const HermesValAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const DynRead&) const { return sized(kId); }
  std::size_t operator()(const DynReadReply& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const DynWrite& m) const {
    return sized(kId + kClock + 4 + m.value.size());
  }
  std::size_t operator()(const DynWriteAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const DynHandoff& m) const {
    return sized(kId + kClock + m.value.size());
  }
  std::size_t operator()(const DynHandoffAck&) const {
    return sized(kId + kClock);
  }
  std::size_t operator()(const DynRepair& m) const {
    return sized(kId + kClock + m.value.size());
  }
};

}  // namespace

std::size_t approximate_size(const Payload& p) {
  return std::visit(SizeOf{}, p);
}

}  // namespace dq::msg
