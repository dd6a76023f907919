#include "rpc/qrpc.h"

#include <algorithm>
#include <utility>

namespace dq::rpc {

CallId QrpcEngine::call(const quorum::QuorumSystem& system, quorum::Kind kind,
                        BuildRequest build, OnReply on_reply,
                        OnComplete on_complete, QrpcOptions opts) {
  // Classic form: no predicate, done == "a quorum has responded".
  return call_until(system, kind, std::move(build), std::move(on_reply),
                    Done{}, std::move(on_complete), opts);
}

CallId QrpcEngine::call_until(const quorum::QuorumSystem& system,
                              quorum::Kind kind, BuildRequest build,
                              OnReply on_reply, Done done,
                              OnComplete on_complete, QrpcOptions opts) {
  const CallId id = world_.fresh_rpc_id().value();
  const auto it = calls_.try_emplace(id).first;
  Call& c = it->second;
  c.system = &system;
  c.kind = kind;
  c.build = std::move(build);
  c.reply_cb = std::move(on_reply);
  c.done = std::move(done);
  c.complete_cb = std::move(on_complete);
  c.opts = opts;
  c.cur_timeout = opts.initial_timeout;
  if (opts.deadline != sim::kTimeInfinity) {
    c.deadline_at = world_.now() + opts.deadline;
  }
  m_calls_->inc();
  m_inflight_->add(+1);

  // The condition may already hold (e.g. every OQS copy already invalid).
  if (c.satisfied()) {
    finish(it, true);
    return 0;
  }
  transmit_round(id, c);
  return arm_retry(id, c) ? id : 0;
}

void QrpcEngine::transmit_round(CallId id, Call& c) {
  m_rounds_->inc();
  // Fresh random quorum each round, local node preferred (section 2).
  const auto targets = c.system->pick(c.kind, world_.rng(), self_);
  for (NodeId t : targets) {
    if (auto payload = c.build(t)) {
      world_.send(self_, t, RequestId(id), *std::move(payload));
    }
  }
}

bool QrpcEngine::arm_retry(CallId id, Call& c) {
  if (world_.now() >= c.deadline_at) {
    finish(calls_.find(id), false);
    return false;
  }
  sim::Duration wait = c.cur_timeout;
  if (world_.now() + wait > c.deadline_at) wait = c.deadline_at - world_.now();
  c.retry_timer = world_.set_timer(self_, wait, [this, id] {
    const auto it = calls_.find(id);
    if (it == calls_.end()) return;
    Call& c2 = it->second;
    if (c2.satisfied()) {  // external state may have completed us
      finish(it, true);
      return;
    }
    if (world_.now() >= c2.deadline_at) {
      finish(it, false);
      return;
    }
    c2.cur_timeout = std::min(
        static_cast<sim::Duration>(static_cast<double>(c2.cur_timeout) *
                                   c2.opts.backoff),
        c2.opts.max_timeout);
    m_retries_->inc();
    transmit_round(id, c2);
    arm_retry(id, c2);
  });
  return true;
}

bool QrpcEngine::on_reply(const sim::Envelope& env) {
  if (!env.is_reply) return false;  // never consume a loopback request
  const CallId id = env.rpc_id.value();
  const auto it = calls_.find(id);
  if (it == calls_.end()) return false;
  Call& c = it->second;
  // Duplicate replies from the same node are delivered to the callback only
  // once per node: every protocol reply in this codebase is idempotent and
  // later replies from the same node carry no more information for quorum
  // accounting.  (State-updating callbacks apply max() merges anyway.)
  if (!c.responded.insert(env.src).second) return true;
  if (c.reply_cb) c.reply_cb(env.src, env.body);
  poke(id);  // looked up afresh: the callback may have re-entered the engine
  return true;
}

void QrpcEngine::poke(CallId id) {
  const auto it = calls_.find(id);
  if (it != calls_.end() && it->second.satisfied()) finish(it, true);
}

void QrpcEngine::finish(Calls::iterator it, bool success) {
  // Move the call out before invoking the completion: the continuation
  // frequently starts the next QRPC phase and may recurse into the engine.
  Call c = std::move(it->second);
  c.retry_timer.cancel();
  calls_.erase(it);
  m_inflight_->add(-1);
  if (!success) m_timeouts_->inc();
  if (c.complete_cb) c.complete_cb(success);
}

void QrpcEngine::cancel(CallId id) {
  const auto it = calls_.find(id);
  if (it == calls_.end()) return;
  it->second.retry_timer.cancel();
  calls_.erase(it);
  m_inflight_->add(-1);
}

void QrpcEngine::cancel_all() {
  for (auto& [id, c] : calls_) c.retry_timer.cancel();
  m_inflight_->add(-static_cast<std::int64_t>(calls_.size()));
  calls_.clear();
}

}  // namespace dq::rpc
