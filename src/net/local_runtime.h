// LocalRuntime: the in-process actor runtime shared by ThreadTransport and
// the local half of SocketTransport.
//
// Each registered actor gets a mailbox and one dispatch thread, so one
// actor's handlers never run concurrently while different actors run in
// parallel. An in-flight count (raised by deliver(), lowered after the
// handler returns) gives the quiescence barrier behind wait_idle()/idle()
// and drain-then-stop. Handlers receive a Context that sends through the
// owning transport, so replies take the owner's accounting, faults and
// routing. Context::now() is wall time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/net/message.h"

namespace mendel::net {

class LocalRuntime {
 public:
  explicit LocalRuntime(Transport* owner) : owner_(owner) {}
  ~LocalRuntime() {
    if (running()) drain_and_stop();
  }

  LocalRuntime(const LocalRuntime&) = delete;
  LocalRuntime& operator=(const LocalRuntime&) = delete;

  // Throws InvalidArgument on a null actor, a duplicate id, or after
  // start().
  void add(NodeId id, Actor* actor);
  bool hosts(NodeId id) const { return mailboxes_.contains(id); }
  std::vector<NodeId> ids() const;

  // Spawns one dispatch thread per actor.
  void start();
  bool running() const { return started_ && !stopped_; }

  // Queues `message` for its destination actor; false when this runtime
  // does not host it. Thread-safe.
  bool deliver(Message message);

  // Blocks until every mailbox is empty and no handler is running.
  void wait_idle();
  // True when no message is queued or being handled. With causally chained
  // protocols (every in-flight message was sent either externally or from a
  // running handler) this can only be observed between complete dataflows,
  // so the concurrent client uses it to detect stalled queries.
  bool idle() const { return inflight_.load(std::memory_order_acquire) == 0; }
  // wait_idle(), then stop(). Safe to call once.
  void drain_and_stop();
  // Lets each dispatch thread finish what is already queued, then joins
  // them. Idempotent.
  void stop();

  // Handlers that raised DecodeError: malformed bytes an actor did not
  // swallow itself. A subset of handler_errors(), counted separately so
  // hostile input is distinguishable from handler bugs.
  std::uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }
  // Errors thrown by handlers. A throwing handler must not wedge the
  // in-flight count (that would deadlock drain_and_stop()), so dispatch
  // catches, records here and keeps serving. Each entry names the node and
  // the offending message (describe()) next to the exception's what(), so
  // a CI failure is diagnosable from the list alone.
  std::vector<std::string> handler_errors() const MENDEL_EXCLUDES(errors_mu_);

 private:
  struct Mailbox {
    NodeId id = 0;
    Actor* actor = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue MENDEL_GUARDED_BY(mu);
    bool stop MENDEL_GUARDED_BY(mu) = false;
  };

  void dispatch_loop(Mailbox& mailbox);
  void record_error(const Mailbox& mailbox, const Message& message,
                    const char* what) MENDEL_EXCLUDES(errors_mu_);

  Transport* owner_;
  std::map<NodeId, std::unique_ptr<Mailbox>> mailboxes_;
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<std::int64_t> inflight_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::atomic<std::uint64_t> decode_errors_{0};
  mutable std::mutex errors_mu_;
  std::vector<std::string> errors_ MENDEL_GUARDED_BY(errors_mu_);

  std::vector<std::thread> workers_;
};

}  // namespace mendel::net
