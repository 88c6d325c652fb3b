// MpscMailbox — the lock-free multi-producer/single-consumer inbox behind
// ThreadedScheduler's cross-shard mailbox. Producers push onto an
// intrusive Treiber stack with one CAS; the single consumer splices the
// whole stack off with one exchange and processes it as a batch, so the
// cross-thread critical section is O(1) per batch instead of a mutex
// acquisition per item.
//
// Ordering: drain() hands items back in push order (the spliced LIFO chain
// is reversed once, consumer-side). Callers that need a global order across
// producers must stamp items themselves (ThreadedScheduler re-sorts into
// its deadline queue by (t, seq)).
//
// Wake discipline: push() returns true iff the mailbox was empty before
// the push. Exactly the producer that makes the mailbox non-empty owes the
// consumer a wakeup — every later producer is covered by that wake, because
// the consumer always drains to empty. This is what lets a flood of pushes
// coalesce into one futex wake instead of one per item.
//
// Node recycling: producers allocating nodes that the consumer frees is the
// classic cross-thread malloc pathology — every delete bounces the owning
// arena's lock between threads. Instead the consumer returns drained nodes
// to a per-mailbox free stack (CAS push), and producers refill a
// thread-local cache by detaching the whole stack with one exchange. The
// detach-everything pop cannot suffer ABA (no node is ever dereferenced
// before ownership transfers), so no tagged pointers or DWCAS are needed.
// T must be move-assignable (recycled nodes are refilled by assignment).
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>

namespace koptlog {

template <typename T>
class MpscMailbox {
 public:
  struct Node {
    Node* next;
    T value;
  };

  MpscMailbox() = default;
  ~MpscMailbox() {
    // Only safe once producers and consumer have quiesced (the scheduler
    // joins its worker and forbids late pushes before destruction).
    drain([](T&&) {});
    delete_chain(head_.exchange(nullptr, std::memory_order_acquire));
    delete_chain(free_top_.exchange(nullptr, std::memory_order_acquire));
  }

  MpscMailbox(const MpscMailbox&) = delete;
  MpscMailbox& operator=(const MpscMailbox&) = delete;

  /// Take a recycled (or fresh) node holding `value`, ready to link into a
  /// chain for splice(). The caller owns it until spliced or released.
  Node* make_node(T value) {
    Node* n = acquire_node();
    n->next = nullptr;
    n->value = std::move(value);
    return n;
  }

  /// Thread-safe for any number of producers. Returns true iff the mailbox
  /// was empty, i.e. this producer owes the consumer a wakeup.
  bool push(T value) {
    Node* n = make_node(std::move(value));
    Node* h = head_.load(std::memory_order_relaxed);
    do {
      n->next = h;
    } while (!head_.compare_exchange_weak(h, n, std::memory_order_release,
                                          std::memory_order_relaxed));
    return h == nullptr;
  }

  /// Splice a pre-linked chain of nodes in with a single CAS (the batch
  /// counterpart of push). `first..last` must be linked via Node::next with
  /// last->next ignored. Returns true iff the mailbox was empty.
  bool splice(Node* first, Node* last) {
    Node* h = head_.load(std::memory_order_relaxed);
    do {
      last->next = h;
    } while (!head_.compare_exchange_weak(h, first, std::memory_order_release,
                                          std::memory_order_relaxed));
    return h == nullptr;
  }

  /// Consumer only: detach everything pushed so far and return it as a
  /// chain in push order (nullptr when empty). Ownership of the nodes
  /// transfers to the caller, who hands them back via recycle() — this is
  /// the zero-copy path ThreadedScheduler uses: the worker keeps the nodes
  /// alive in its deadline queue and only the (t, seq) keys move through
  /// the heap.
  Node* drain_chain() {
    Node* chain = head_.exchange(nullptr, std::memory_order_acquire);
    // The stack is newest-first; reverse once to recover push order.
    Node* rev = nullptr;
    while (chain != nullptr) {
      Node* next = chain->next;
      chain->next = rev;
      rev = chain;
      chain = next;
    }
    return rev;
  }

  /// Return a `first..last` chain of drained nodes (linked via next,
  /// last->next ignored) to the free stack for producers to reuse. Safe
  /// from any thread.
  void recycle(Node* first, Node* last) {
    if (first == nullptr) return;
    Node* h = free_top_.load(std::memory_order_relaxed);
    do {
      last->next = h;
    } while (!free_top_.compare_exchange_weak(
        h, first, std::memory_order_release, std::memory_order_relaxed));
  }

  /// Consumer only: take everything pushed so far and apply `fn` to each
  /// item in push order, then recycle the nodes. Returns the number of
  /// items drained.
  template <typename Fn>
  size_t drain(Fn&& fn) {
    Node* first = drain_chain();
    if (first == nullptr) return 0;
    size_t count = 0;
    Node* last = nullptr;
    for (Node* n = first; n != nullptr; n = n->next) {
      fn(std::move(n->value));
      last = n;
      ++count;
    }
    recycle(first, last);
    return count;
  }

  /// Racy by nature; exact only when producers are quiet.
  bool empty(std::memory_order order = std::memory_order_seq_cst) const {
    return head_.load(order) == nullptr;
  }

 private:
  // Thread-local node cache, shared across mailboxes of the same T: a
  // producer may refill from one mailbox's free stack and spend the nodes
  // on another — nodes are homogeneous heap objects, the value slot is
  // always overwritten. The destructor frees whatever the thread still
  // holds when it exits.
  struct FreeCache {
    Node* top = nullptr;
    ~FreeCache() { delete_chain(top); }
  };
  static FreeCache& tls_cache() {
    static thread_local FreeCache cache;
    return cache;
  }

  static void delete_chain(Node* n) {
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }

  Node* acquire_node() {
    FreeCache& cache = tls_cache();
    if (cache.top == nullptr) {
      // Detach the whole free stack at once; taking everything (instead of
      // popping one) is what makes the lock-free pop ABA-safe.
      cache.top = free_top_.exchange(nullptr, std::memory_order_acquire);
    }
    if (cache.top != nullptr) {
      Node* n = cache.top;
      cache.top = n->next;
      return n;
    }
    return new Node{nullptr, T{}};
  }

  std::atomic<Node*> head_{nullptr};
  std::atomic<Node*> free_top_{nullptr};
};

}  // namespace koptlog
