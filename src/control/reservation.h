#ifndef OWAN_CONTROL_RESERVATION_H_
#define OWAN_CONTROL_RESERVATION_H_

#include <map>
#include <optional>
#include <vector>

#include "core/topology.h"
#include "core/transfer.h"
#include "optical/optical_network.h"
#include "service/admission.h"

namespace owan::control {

// Bandwidth reservations (the paper's §6 future-work direction): clients
// book a guaranteed rate between two sites over a time window, the WAN
// analogue of cloud bandwidth guarantees. A guarantee books rate × slot
// length in every slot its window overlaps on an admission ledger over the
// network-layer topology; when that topology is full, the service may ask
// the optical layer to light an extra circuit for the window — the
// "reconfigurability improves reservations" idea the paper sketches.
struct Reservation {
  int id = -1;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  double rate = 0.0;     // Gbps guaranteed
  double start = 0.0;    // absolute seconds, inclusive
  double end = 0.0;      // absolute seconds, exclusive
  // Paths carrying the guarantee (with per-path rates), as admitted.
  std::vector<core::PathAllocation> paths;
  // True when admission required lighting an extra circuit.
  bool used_extra_circuit = false;
};

struct ReservationOptions {
  double slot_seconds = 300.0;
  // Allow admission to claim a spare optical circuit (one wavelength)
  // between the endpoints when the packet topology is full.
  bool allow_optical_boost = true;
};

class ReservationService {
 public:
  // `topology` is the network-layer topology whose capacity backs the
  // guarantees; `optical` is consulted (copy-on-admit) for boosts.
  ReservationService(const core::Topology& topology,
                     const optical::OpticalNetwork& optical,
                     ReservationOptions options = {});

  // Attempts to admit a reservation; returns it (with chosen paths) or
  // nullopt if the window cannot be guaranteed.
  std::optional<Reservation> Request(net::NodeId src, net::NodeId dst,
                                     double rate, double start, double end);

  // Releases an admitted reservation's capacity.
  void Release(int reservation_id);

  // Guaranteed rate still available between src and dst over the window
  // (along the single best path set, ignoring optical boosts).
  double AvailableRate(net::NodeId src, net::NodeId dst, double start,
                       double end) const;

  const std::map<int, Reservation>& reservations() const {
    return reservations_;
  }
  int BoostCircuits() const { return boost_circuits_; }
  const service::AdmissionController& ledger() const { return ledger_; }

 private:
  // Shared admission guard: real endpoints, positive finite rate, and a
  // non-empty window that does not start in the past.
  bool ValidWindow(net::NodeId src, net::NodeId dst, double rate,
                   double start, double end) const;

  int64_t FirstSlot(double start) const {
    return static_cast<int64_t>(start / options_.slot_seconds);
  }
  int64_t LastSlot(double end) const {
    // A window covers every slot it overlaps.
    return static_cast<int64_t>((end - 1e-9) / options_.slot_seconds);
  }

  core::Topology topology_;
  optical::OpticalNetwork optical_;
  ReservationOptions options_;

  service::AdmissionController ledger_;  // bookings keyed by reservation id
  std::map<int, Reservation> reservations_;
  int next_id_ = 0;
  int boost_circuits_ = 0;
};

}  // namespace owan::control

#endif  // OWAN_CONTROL_RESERVATION_H_
