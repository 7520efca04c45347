// Per-shard request inbox: N client threads push batches, one shard
// worker pops requests in global sequence order.
//
// Concurrency model is deliberately boring — one mutex per inbox, batch
// copy on both sides. Clients hand over a whole span per Push (one lock
// acquisition per batch, not per request); the worker drains the maximal
// currently-safe run per PopReady call. At serving granularity the mutex
// is uncontended noise; the interesting part is ordering, not locking.
//
// Memory model is equally boring but deliberate: each client queue is a
// flat ring buffer (util/ring_buffer.h) whose capacity only grows, Push
// copies into it, and PopReady writes into a caller-owned array — so the
// steady-state produce/merge/consume cycle performs no allocation on
// either side of the lock.
//
// Ordering contract (the determinism foundation, see server.h): every
// request carries its global sequence number, each client's pushes are
// ascending in it, and PopReady only releases request seq when it can
// prove no smaller-seq request can still arrive — i.e. when every client
// that has not called Close has a nonempty queue. The shard therefore
// consumes exactly the subsequence of the global stream it owns, in
// global order, independent of client count, batch size, and thread
// schedule. The cost is a stall whenever some open client has an empty
// queue; that is the documented price of bitwise determinism (E16
// measures what remains of the parallelism).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "trace/request.h"
#include "util/ring_buffer.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wmlp {

// A request tagged with its position in the global submitted stream.
// `request.page` stays a *global* page id; the shard boundary remaps it
// to the shard-local instance (server.cpp).
struct SeqRequest {
  int64_t seq = 0;
  Request request;
};

class ShardInbox {
 public:
  explicit ShardInbox(int32_t num_clients);

  ShardInbox(const ShardInbox&) = delete;
  ShardInbox& operator=(const ShardInbox&) = delete;

  // Copies `batch` (ascending seq, all seqs greater than any previous
  // push from this client) into `client`'s queue. The caller keeps its
  // buffer — and its capacity — for reuse. Illegal after Close (checked).
  // Empty batches are allowed and ignored.
  void Push(int32_t client, std::span<const SeqRequest> batch);
  void Push(int32_t client, std::initializer_list<SeqRequest> batch) {
    Push(client, std::span<const SeqRequest>(batch.begin(), batch.size()));
  }

  // Declares that `client` will push no further batches. Idempotent.
  void Close(int32_t client);

  // Blocks until at least one request is provably next in sequence order
  // (or every client has closed and drained), then writes up to `max_out`
  // in-order requests to `out` and returns how many were written.
  // Returns 0 only at end of stream. Single-consumer; `out` must hold
  // `max_out` entries.
  size_t PopReady(SeqRequest* out, size_t max_out);

  // True once every client has closed and every queue is drained.
  bool drained();

 private:
  struct ClientQueue {
    RingBuffer<SeqRequest> queue;
    bool closed = false;
  };

  // A pop is safe iff some queue is nonempty and no *open* client's queue
  // is empty: within a client seqs ascend, so the min over the heads is
  // the global min of everything still to come.
  bool CanPopLocked() const REQUIRES(mutex_);
  bool FinishedLocked() const REQUIRES(mutex_);

  Mutex mutex_;
  CondVar ready_;
  std::vector<ClientQueue> clients_ GUARDED_BY(mutex_);

  // Registry handles (inbox.cpp), registered once per process and held
  // here, so Push and PopReady register no metric; each call adds to them
  // once.
  struct Metrics;
  const Metrics& metrics_;
};

}  // namespace wmlp
