#include "src/net/local_runtime.h"

#include <chrono>
#include <cmath>

#include "src/common/error.h"
#include "src/common/stopwatch.h"

namespace mendel::net {

// Settle rounds number from the top half of the id space, so a probe's
// request_id never matches a query id tracked by the traffic ledger.
LocalRuntime::LocalRuntime(Transport* owner)
    : owner_(owner), next_settle_round_(std::uint64_t{1} << 63) {}

void LocalRuntime::add(NodeId id, Actor* actor) {
  require(actor != nullptr, "LocalRuntime: null actor");
  require(!started_, "LocalRuntime: register after start()");
  require(!mailboxes_.contains(id),
          "LocalRuntime: duplicate actor id " + std::to_string(id));
  auto mailbox = std::make_unique<Mailbox>();
  mailbox->id = id;
  mailbox->actor = actor;
  mailboxes_.emplace(id, std::move(mailbox));
}

std::vector<NodeId> LocalRuntime::ids() const {
  std::vector<NodeId> ids;
  ids.reserve(mailboxes_.size());
  for (const auto& [id, mailbox] : mailboxes_) ids.push_back(id);
  return ids;
}

void LocalRuntime::start() {
  require(!started_, "LocalRuntime: started twice");
  started_ = true;
  workers_.reserve(mailboxes_.size());
  for (auto& [id, mailbox] : mailboxes_) {
    workers_.emplace_back(
        [this, mailbox = mailbox.get()] { dispatch_loop(*mailbox); });
  }
}

bool LocalRuntime::deliver(Message message) {
  auto it = mailboxes_.find(message.to);
  if (it == mailboxes_.end()) return false;
  Mailbox& mailbox = *it->second;
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard lock(mailbox.mu);
    mailbox.queue.push_back(std::move(message));
  }
  mailbox.cv.notify_one();
  return true;
}

void LocalRuntime::dispatch_loop(Mailbox& mailbox) {
  for (;;) {
    Message message;
    {
      // Explicit wait loop (not a predicate lambda) so Clang's
      // thread-safety analysis can see queue/stop accessed under mu.
      std::unique_lock lock(mailbox.mu);
      while (!mailbox.stop && mailbox.queue.empty()) mailbox.cv.wait(lock);
      if (mailbox.queue.empty()) return;  // stop && drained
      message = std::move(mailbox.queue.front());
      mailbox.queue.pop_front();
    }
    Context ctx(owner_, mailbox.id, monotonic_seconds());
    try {
      if (!consume_settle(mailbox, message)) {
        mailbox.actor->handle(message, ctx);
      }
    } catch (const DecodeError& e) {
      // A malformed frame an actor did not swallow itself (StorageNode
      // counts and drops its own; this backstop covers every other actor,
      // e.g. the client's reply handler).
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      record_error(mailbox, message, e.what());
    } catch (const std::exception& e) {
      record_error(mailbox, message, e.what());
    } catch (...) {
      record_error(mailbox, message, "unknown (non-std::exception) error");
    }
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(idle_mu_);
      idle_cv_.notify_all();
    }
  }
}

bool LocalRuntime::consume_settle(const Mailbox& mailbox,
                                  const Message& message) {
  if (message.type == kSettleProbe) {
    owner_->send({.from = mailbox.id,
                  .to = message.from,
                  .type = kSettleAck,
                  .request_id = message.request_id,
                  .payload = {}});
    return true;
  }
  if (message.type != kSettleAck) return false;
  std::lock_guard lock(settle_mu_);
  auto it = settle_rounds_.find(message.request_id);
  if (it != settle_rounds_.end() && it->second.erase(message.from) == 1 &&
      it->second.empty()) {
    settle_cv_.notify_all();
  }
  return true;
}

void LocalRuntime::settle(const std::vector<NodeId>& remote,
                          const FaultInjector& faults, double timeout) {
  require(running(), "LocalRuntime: settle while not running");
  if (mailboxes_.empty()) return;  // no mailbox to take the acks
  std::set<NodeId> targets(remote.begin(), remote.end());
  for (const auto& [id, mailbox] : mailboxes_) targets.insert(id);
  std::erase_if(targets, [&](NodeId id) { return faults.node_down(id); });
  if (targets.empty()) return;
  const NodeId from =
      hosts(kClientNode) ? kClientNode : mailboxes_.begin()->first;
  std::uint64_t round = 0;
  {
    std::lock_guard lock(settle_mu_);
    round = next_settle_round_++;
    settle_rounds_[round] = targets;
  }
  for (const NodeId to : targets) {
    owner_->send({.from = from,
                  .to = to,
                  .type = kSettleProbe,
                  .request_id = round,
                  .payload = {}});
  }
  const bool bounded = std::isfinite(timeout);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(bounded ? timeout : 0.0));
  std::unique_lock lock(settle_mu_);
  const auto it = settle_rounds_.find(round);  // std::map: stays valid
  while (!it->second.empty()) {
    if (!bounded) {
      settle_cv_.wait(lock);
    } else if (settle_cv_.wait_until(lock, deadline) ==
               std::cv_status::timeout) {
      break;
    }
  }
  settle_rounds_.erase(it);
}

void LocalRuntime::record_error(const Mailbox& mailbox, const Message& message,
                                const char* what) {
  std::string entry = "node " + std::to_string(mailbox.id) + " handling " +
                      describe(message) + ": " + what;
  std::lock_guard lock(errors_mu_);
  errors_.push_back(std::move(entry));
}

std::vector<std::string> LocalRuntime::handler_errors() const {
  std::lock_guard lock(errors_mu_);
  return errors_;
}

void LocalRuntime::wait_idle() {
  require(started_, "LocalRuntime: wait_idle before start()");
  std::unique_lock lock(idle_mu_);
  idle_cv_.wait(lock, [this] { return idle(); });
}

void LocalRuntime::drain_and_stop() {
  require(!stopped_, "LocalRuntime: drained twice");
  wait_idle();  // throws before start()
  stop();
}

void LocalRuntime::stop() {
  if (!running()) return;
  stopped_ = true;
  for (auto& [id, mailbox] : mailboxes_) {
    std::lock_guard lock(mailbox->mu);
    mailbox->stop = true;
    mailbox->cv.notify_all();
  }
  for (auto& worker : workers_) worker.join();
}

}  // namespace mendel::net
