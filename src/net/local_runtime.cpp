#include "src/net/local_runtime.h"

#include "src/common/error.h"
#include "src/common/stopwatch.h"

namespace mendel::net {

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
      mailbox.actor->handle(message, ctx);
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
