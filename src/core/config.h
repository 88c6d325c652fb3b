// ProtocolConfig — every tunable of the recovery layer, including the
// paper's degree of optimism K and the three Strom–Yemini modifications
// (each individually toggleable so the benches can ablate them).
#pragma once

#include <limits>

#include "common/types.h"
#include "storage/stable_storage.h"

namespace koptlog {

struct ProtocolConfig {
  /// Degree of optimism: given any released message, at most K process
  /// failures can revoke it (Theorem 4). 0 = pessimistic guarantee,
  /// N (or kUnboundedK) = traditional optimistic logging.
  int k = kUnboundedK;
  static constexpr int kUnboundedK = std::numeric_limits<int>::max();

  /// Theorem 2 (commit dependency tracking): NULL out dependency entries on
  /// intervals known stable. Off = full transitive tracking (size-N vector
  /// on the wire), the Strom–Yemini regime. Must be on for finite K.
  bool null_stable_entries = true;

  /// Corollary 1: a dependency entry may be overwritten by (or acquired
  /// over) a newer incarnation as soon as the older entry is known *stable*
  /// — and immediately when there is no existing entry. Off = Strom–
  /// Yemini's original rule: delay delivery until the rollback
  /// announcements for all prior incarnations have arrived.
  bool cor1_fast_delivery = true;

  /// Theorem 1 off: every rolled-back process (not only failed ones)
  /// broadcasts a rollback announcement, Strom–Yemini style.
  bool announce_all_rollbacks = false;

  /// Direct-tracking engine only: hold each received message this long
  /// before delivering it, so rollback announcements (which travel on the
  /// low-latency control plane) outrun the data plane. Without transitive
  /// tracking this conservative window is what keeps rollback cascades
  /// finite: messages from a just-ended incarnation are discarded at the
  /// end of the hold instead of being delivered and re-orphaned. The added
  /// delivery latency is part of direct tracking's price (bench E11).
  SimTime ddt_delivery_hold_us = 1'000;

  /// Garbage collection of stable storage (paper §2: logging-progress
  /// information "is accumulated locally at each process to allow output
  /// commit and garbage collection"). At every checkpoint, the newest
  /// checkpoint whose dependency entries are all known stable can never be
  /// orphaned (Theorem 2's argument), so everything older — checkpoints
  /// and log records alike — is reclaimed.
  bool garbage_collect = true;

  /// Reliable delivery via sender-based retransmission (paper §2 fn. 3:
  /// lost in-transit messages "can be retrieved from the senders' volatile
  /// logs"). Released messages are kept until the receiver acknowledges
  /// them and re-sent periodically; receivers deduplicate by id, orphaned
  /// copies are dropped, and replay after a sender crash regenerates the
  /// retransmission state. Off by default (the paper's base model).
  bool reliable_delivery = false;
  SimTime retransmit_interval_us = 50'000;

  /// Classical pessimistic logging (the K=0 baseline's mechanism): every
  /// delivered message is synchronously logged before the application
  /// handler may send. Each interval is stable the moment it exists, so no
  /// dependency ever propagates, messages release immediately, and no
  /// failure can revoke anything — at the price of one blocking
  /// stable-storage write per delivery.
  bool pessimistic_sync_logging = false;

  // --- timers (simulated microseconds) ---
  SimTime flush_interval_us = 5'000;        ///< async log flush period
  SimTime checkpoint_interval_us = 100'000; ///< checkpoint period
  SimTime notify_interval_us = 10'000;      ///< logging-progress broadcast period

  /// Paper §2: "each process takes independent or coordinated checkpoints
  /// [4]". Independent (default): every process runs its own checkpoint
  /// timer. Coordinated: the cluster broadcasts a marker round every
  /// checkpoint_interval_us and processes checkpoint on receipt, so the
  /// checkpoints of a round form a recovery line whose skew is one
  /// control-plane latency. Under message logging both are correct; the
  /// coordinated line keeps every process's replay distance similar.
  bool coordinated_checkpoints = false;

  // --- processing costs ---
  SimTime deliver_cost_us = 10;     ///< app handler service time
  SimTime restart_delay_us = 20'000;///< failure detection + checkpoint reload
  SimTime replay_per_msg_us = 5;    ///< replaying one logged message

  StorageCosts storage;

  /// Storage backend selection: the cost-model simulation (default) or the
  /// durable segmented on-disk log (see storage/storage_backend.h).
  StorageOptions storage_backend;

  /// Presets: the paper's protocol and the configurations it compares
  /// against. All run on the same recovery engine, so failure-free
  /// overhead and recovery-scope comparisons are mechanism-for-mechanism
  /// fair.

  /// The paper's own contribution with degree of optimism K.
  static ProtocolConfig k_optimistic(int k) {
    ProtocolConfig c;
    c.k = k;
    return c;
  }
  static ProtocolConfig traditional_optimistic() { return ProtocolConfig{}; }
  /// Traditional optimistic logging [Strom & Yemini 1985]: size-N vectors
  /// (no Theorem-2 NULLing), delivery delayed until prior-incarnation
  /// announcements arrive (no Corollary 1), every rollback announced (no
  /// Theorem 1). Requires FIFO channels.
  static ProtocolConfig strom_yemini() {
    ProtocolConfig c;
    c.null_stable_entries = false;
    c.cor1_fast_delivery = false;
    c.announce_all_rollbacks = true;
    return c;
  }
  /// Ablation: Theorem 1 and Corollary 1 applied, but no commit dependency
  /// tracking (entries never NULLed), isolating Theorem 2's contribution
  /// to vector size.
  static ProtocolConfig full_tdv() {
    ProtocolConfig c;
    c.null_stable_entries = false;
    return c;
  }
  /// Classical pessimistic logging [Borg et al., Huang & Wang]: synchronous
  /// log-before-send, no dependency tracking on the wire, 0 revocable
  /// messages, localized recovery.
  static ProtocolConfig pessimistic() {
    ProtocolConfig c;
    c.k = 0;
    c.pessimistic_sync_logging = true;
    return c;
  }
};

}  // namespace koptlog
