#include "traced_dqvl.h"

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "core/config.h"
#include "core/iqs_server.h"
#include "core/oqs_server.h"
#include "protocols/dq_adapter.h"
#include "protocols/registry.h"
#include "quorum/quorum.h"
#include "span.h"
#include "workload/experiment.h"

namespace e2e {
namespace {

using namespace dq;

class TimedQuorum final : public quorum::QuorumSystem {
 public:
  explicit TimedQuorum(std::shared_ptr<const quorum::QuorumSystem> inner)
      : QuorumSystem(inner->members()), inner_(std::move(inner)) {}

  [[nodiscard]] std::vector<NodeId> pick(
      quorum::Kind kind, Rng& rng,
      std::optional<NodeId> prefer) const override {
    const Span s(kQuorum);
    return inner_->pick(kind, rng, prefer);
  }
  [[nodiscard]] bool is_quorum(quorum::Kind kind,
                               const std::set<NodeId>& acked) const override {
    const Span s(kQuorum);
    return inner_->is_quorum(kind, acked);
  }
  [[nodiscard]] std::size_t quorum_size(quorum::Kind kind) const override {
    return inner_->quorum_size(kind);
  }

 private:
  std::shared_ptr<const quorum::QuorumSystem> inner_;
};

class TimedServiceClient final : public protocols::ServiceClient {
 public:
  explicit TimedServiceClient(std::shared_ptr<protocols::ServiceClient> inner)
      : inner_(std::move(inner)) {}

  void read(ObjectId o, ReadCallback done) override {
    const Span s(kFrontend);
    inner_->read(o, std::move(done));
  }
  void write(ObjectId o, Value value, WriteCallback done) override {
    const Span s(kFrontend);
    inner_->write(o, std::move(value), std::move(done));
  }
  bool on_message(const sim::Envelope& env) override {
    const Span s(kFrontend);
    return inner_->on_message(env);
  }
  void cancel_all() override {
    const Span s(kFrontend);
    inner_->cancel_all();
  }

 private:
  std::shared_ptr<protocols::ServiceClient> inner_;
};

// Mirror of build_dqvl(dep, DqvlVariant::kHeadline); keep in step with it.
void build_traced_dqvl(workload::Deployment& dep) {
  const workload::ExperimentParams& params = dep.params();
  sim::World& world = dep.world();
  const auto& topo = world.topology();
  const workload::QuorumSpec& spec = params.iqs;
  DQ_INVARIANT(spec.size() >= 1 && spec.size() <= topo.num_servers(),
               "IQS spec size out of range");

  std::vector<NodeId> all = topo.servers();
  std::vector<NodeId> iqs_members(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(spec.size()));
  auto cfg = std::make_shared<core::DqConfig>(
      core::DqConfig::headline(all, iqs_members, params.lease_length));
  cfg->iqs = spec.build(iqs_members);
  if (params.oqs_read_quorum > 1) {
    const std::size_t n = all.size();
    DQ_INVARIANT(params.oqs_read_quorum <= n, "oqs_read_quorum too large");
    cfg->oqs = std::make_shared<quorum::ThresholdQuorum>(
        all, params.oqs_read_quorum, n - params.oqs_read_quorum + 1);
  }
  cfg->iqs = std::make_shared<TimedQuorum>(cfg->iqs);
  cfg->oqs = std::make_shared<TimedQuorum>(cfg->oqs);
  cfg->object_lease_length = params.object_lease_length;
  cfg->volumes = store::VolumeMap(params.num_volumes);
  cfg->max_delayed_per_volume = params.max_delayed_per_volume;
  cfg->max_drift = params.max_drift;
  cfg->suppression_enabled = params.suppression;
  cfg->proactive_volume_renewal = params.proactive_renewal;
  cfg->batch_volume_renewals = params.batch_renewals;
  cfg->rpc = dep.rpc_options();
  cfg->wal = params.wal;

  workload::Deployment::DqvlRuntime rt;
  rt.cfg = cfg;

  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    const NodeId n = topo.server(i);
    workload::EdgeNode& node = dep.server_node(i);

    dep.install_front_end(
        i, std::make_shared<TimedServiceClient>(
               std::make_shared<protocols::DqServiceClient>(world, n, rt.cfg)));

    auto oqs = std::make_unique<core::OqsServer>(world, n, rt.cfg);
    core::OqsServer* oqs_raw = oqs.get();
    node.add_handler([oqs_raw](const sim::Envelope& e) {
      const Span s(kOqs);
      return oqs_raw->on_message(e);
    });
    node.add_crash_hook(
        [oqs_raw] {
          const Span s(kOqs);
          oqs_raw->on_crash();
        },
        [oqs_raw] {
          const Span s(kOqs);
          oqs_raw->on_recover();
        });
    rt.oqs.emplace(n.value(), std::move(oqs));

    if (rt.cfg->iqs->is_member(n)) {
      auto iqs = std::make_unique<core::IqsServer>(world, n, rt.cfg);
      core::IqsServer* iqs_raw = iqs.get();
      node.add_handler([iqs_raw](const sim::Envelope& e) {
        const Span s(kIqs);
        return iqs_raw->on_message(e);
      });
      node.add_crash_hook(
          [iqs_raw] {
            const Span s(kIqs);
            iqs_raw->on_crash();
          },
          [iqs_raw] {
            const Span s(kIqs);
            iqs_raw->on_recover();
          });
      rt.iqs.emplace(n.value(), std::move(iqs));
    }
  }
  dep.set_dqvl_runtime(std::move(rt));
  dep.install_app_clients();
}

}  // namespace

void register_traced_dqvl() {
  // Resolving the builtin first registers the builtins, and tells us the
  // capability claim to copy.
  const protocols::ProtocolInfo* base = workload::find_protocol("dqvl");
  DQ_INVARIANT(base != nullptr, "builtin dqvl protocol missing");
  if (workload::find_protocol(kTracedProtocol) != nullptr) return;
  protocols::ProtocolInfo info;
  info.name = kTracedProtocol;
  info.display_name = base->display_name;
  info.caps = base->caps;
  info.build = build_traced_dqvl;
  protocols::Registry::instance().add(std::move(info));
}

}  // namespace e2e
