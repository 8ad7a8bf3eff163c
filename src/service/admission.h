#ifndef OWAN_SERVICE_ADMISSION_H_
#define OWAN_SERVICE_ADMISSION_H_

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/transfer.h"
#include "net/graph.h"

namespace owan::service {

// Outcome of offering one request to the admission controller.
enum class Admission : uint8_t {
  kAdmitted = 0,  // volume fully booked before the deadline (or no deadline)
  kPending = 1,   // infeasible now, but the deadline window is still open —
                  // re-offer after a Release frees future capacity
  kRejected = 2,  // no usable window (deadline already past, or no path)
};

struct AdmissionOptions {
  double slot_seconds = 300.0;
  int k_paths = 3;
};

// The per-slot admission ledger, with three clients: the streaming
// service's online admission gate, the Amoeba baseline (te::AmoebaTe) and
// bandwidth reservations (control::ReservationService). For every future
// slot it keeps each edge's residual volume in gigabits, created lazily at
// capacity × slot length. A decision holds volume tentatively, then either
// commits it as the bookings of a request id or abandons it.
//
// Offer() is the Amoeba rule: greedily pack the request's volume into the
// whole slots between its first usable boundary and its deadline along k
// shortest paths, earliest slot first; if everything fits, the bookings
// stick and the request is admitted. The check is deliberately cheap —
// O(window × paths) against a per-slot per-edge array — so the service can
// decide at arrival time without running the TE scheme. Reservations pack
// constant-rate windows from the same Paths/Free/Hold/Commit steps.
//
// The ledger is conservative, not exact: the recompute loop may deliver
// more than the reservation implies (topology reconfiguration) or less
// (contention with best-effort traffic). It bounds what admission promises,
// not what the scheme allocates. It does not follow the plant either: a
// fault applied through ControllerService::ReportFault leaves the bookings
// on the graph the ledger was built from.
class AdmissionController {
 public:
  // Volume booked along one path in one slot: edge ids only, which is all
  // the ledger arithmetic and the checkpoint need.
  struct Booking {
    std::vector<net::EdgeId> edges;
    double volume = 0.0;
  };

  AdmissionController(const net::Graph& topology, AdmissionOptions options);

  // Decides `r` at virtual time `now` (normally the arrival timestamp).
  // Deadline-free requests are always admitted best-effort (no bookings).
  Admission Offer(const core::Request& r, double now);
  // True when deadline request `r` has no whole slot left between the first
  // boundary at or after `now` and its deadline: Offer's reject rule.
  bool WindowClosed(const core::Request& r, double now) const;

  // Returns the not-yet-elapsed reserved volume of `id` to the ledger and
  // drops its reservations (transfer completed, possibly early). Returns
  // the gigabit-volume released; 0 for unknown/best-effort ids.
  double Release(int id, double now);
  // The same for `id`'s bookings in `first_slot` and later.
  double ReleaseFrom(int id, int64_t first_slot);

  // Drops ledger and reservation state for slots strictly before the slot
  // containing `now` — elapsed slots can never be packed again, so keeping
  // them only grows memory over a long stream.
  void GarbageCollect(double now);

  // ---- the steps of a decision ----
  const net::Graph& graph() const { return topo_; }
  double slot_seconds() const { return options_.slot_seconds; }
  // The k shortest paths src -> dst, enumerated once per pair.
  const std::vector<net::Path>& Paths(net::NodeId src, net::NodeId dst) const;
  // Volume edge `e` can still take in `slot`, net of the open hold.
  double Free(int64_t slot, net::EdgeId e) const;
  void Hold(int64_t slot, const std::vector<net::EdgeId>& edges,
            double volume);
  // Charges the open hold to the residuals as `id`'s bookings.
  void Commit(int id);
  void Abandon();  // drops the open hold
  // Adds a `capacity` Gbps edge (a newly lit circuit) to every slot.
  net::EdgeId AddEdge(net::NodeId u, net::NodeId v, double weight,
                      double capacity);
  // `id`'s bookings in `slot`, or null.
  const std::vector<Booking>* Bookings(int id, int64_t slot) const;

  // True when a Release since the last ClearReleased() returned capacity —
  // the only event that can turn a pending request admissible, so the
  // service's retry loop keys off it.
  bool capacity_released() const { return capacity_released_; }
  void ClearReleased() { capacity_released_ = false; }

  int64_t admitted() const { return admitted_; }
  int64_t rejected() const { return rejected_; }
  int64_t live_reservations() const {
    return static_cast<int64_t>(reservations_.size());
  }

  // Consistency check for the fuzz oracle: every slot's residual must equal
  // full capacity minus the live bookings crossing each edge, and nothing
  // may be oversubscribed. Returns human-readable violations; empty = ok.
  std::vector<std::string> Audit() const;

  // ---- checkpoint embedding ----
  // Emits "adm ..." / "aresv ..." / "aslot ..." lines; the service's
  // Checkpoint() calls this inside its own body.
  void Checkpoint(std::ostream& os) const;
  // Consumes one line of the section (tag already extracted). Returns false
  // if the tag is not an admission tag. Call FinishRestore() once all lines
  // are in to rebuild the residual ledger from the reservations.
  bool RestoreLine(const std::string& tag, std::istream& ls);
  void FinishRestore();

 private:
  std::vector<double>& SlotResidual(int64_t slot);
  std::vector<double>& HeldIn(int64_t slot);  // zeros when new
  int64_t SlotIndex(double t) const;
  // The deadline window: whole slots from the first boundary at or after
  // `now` (a transfer activates at a slot boundary) to the deadline.
  int64_t FirstUsableSlot(double now) const;
  int64_t LastUsableSlot(double deadline) const;

  net::Graph topo_;
  const AdmissionOptions options_;

  std::map<int64_t, std::vector<double>> residual_;  // slot -> per-edge Gb
  std::map<int, std::map<int64_t, std::vector<Booking>>> reservations_;
  // The open hold: per-edge volume and bookings by slot.
  std::map<int64_t, std::vector<double>> held_;
  std::map<int64_t, std::vector<Booking>> held_bookings_;
  mutable std::map<std::pair<net::NodeId, net::NodeId>, std::vector<net::Path>>
      path_cache_;
  int64_t admitted_ = 0;
  int64_t rejected_ = 0;
  bool capacity_released_ = false;

  // Restore cursors: the reservation / slot currently being filled by
  // aresv/aslot/abook lines. Cleared by FinishRestore.
  std::map<int64_t, std::vector<Booking>>* restore_resv_ = nullptr;
  std::vector<Booking>* restore_slot_ = nullptr;
};

}  // namespace owan::service

#endif  // OWAN_SERVICE_ADMISSION_H_
