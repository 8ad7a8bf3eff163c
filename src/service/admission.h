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

// The service's online admission gate: an Amoeba-style future-slot residual
// ledger over the WAN's fixed default topology (AmoebaTe in src/te/amoeba
// is the batch oracle for this logic). Offer() greedily packs the request's
// volume into the slots between its first usable boundary and its deadline
// along k shortest paths; if everything fits, the bookings stick and the
// request is admitted. The check is deliberately cheap — O(window × paths)
// against a per-slot per-edge array — so the service can decide at arrival
// time without running the TE scheme.
//
// The ledger is conservative, not exact: the recompute loop may deliver
// more than the reservation implies (topology reconfiguration) or less
// (contention with best-effort traffic). It bounds what admission promises,
// not what the scheme allocates. It does not follow the plant either: a
// fault applied through ControllerService::ReportFault leaves the bookings
// on the default topology.
class AdmissionController {
 public:
  AdmissionController(const net::Graph& fixed_topology,
                      AdmissionOptions options);

  // Decides `r` at virtual time `now` (normally the arrival timestamp).
  // Deadline-free requests are always admitted best-effort (no bookings).
  Admission Offer(const core::Request& r, double now);

  // Returns the not-yet-elapsed reserved volume of `id` to the ledger and
  // drops its reservations (transfer completed, possibly early). Returns
  // the gigabit-volume released; 0 for unknown/best-effort ids.
  double Release(int id, double now);

  // Drops ledger and reservation state for slots strictly before the slot
  // containing `now` — elapsed slots can never be packed again, so keeping
  // them only grows memory over a long stream.
  void GarbageCollect(double now);

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
  // Per-slot bookings of one request along one path (edges only — that is
  // all the ledger arithmetic needs).
  struct EdgeVolume {
    std::vector<net::EdgeId> edges;
    double volume = 0.0;
  };

  std::vector<double>& SlotResidual(int64_t slot);
  int64_t SlotIndex(double t) const;

  const net::Graph topo_;
  const AdmissionOptions options_;

  std::map<int64_t, std::vector<double>> residual_;  // slot -> per-edge Gb
  std::map<int, std::map<int64_t, std::vector<EdgeVolume>>> reservations_;
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<net::Path>>
      path_cache_;
  int64_t admitted_ = 0;
  int64_t rejected_ = 0;
  bool capacity_released_ = false;

  // Restore cursors: the reservation / slot currently being filled by
  // aresv/aslot/abook lines. Cleared by FinishRestore.
  std::map<int64_t, std::vector<EdgeVolume>>* restore_resv_ = nullptr;
  std::vector<EdgeVolume>* restore_slot_ = nullptr;
};

}  // namespace owan::service

#endif  // OWAN_SERVICE_ADMISSION_H_
