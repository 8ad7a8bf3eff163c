#ifndef OWAN_OPTICAL_CIRCUIT_H_
#define OWAN_OPTICAL_CIRCUIT_H_

#include <string>
#include <vector>

#include "net/graph.h"

namespace owan::optical {

using CircuitId = int;
inline constexpr CircuitId kInvalidCircuit = -1;

// One regeneration segment of an optical circuit: a contiguous run of fibers
// carrying the same wavelength. Wavelength continuity must hold within a
// segment; a regenerator at the segment boundary may shift the signal to a
// different wavelength (paper §3.2, constraint 3).
struct Segment {
  std::vector<net::EdgeId> fibers;  // fiber edge ids in traversal order
  int wavelength = -1;              // index into the fiber's wavelength grid
  double length_km = 0.0;
  // Margin-adjusted SNR of this segment under the plant's QoT model; +inf
  // when QoT is disabled (legacy hard-reach mode tracks no signal quality).
  double snr_db = 0.0;
};

// An end-to-end optical circuit implementing one network-layer link. The
// circuit occupies one wavelength on every fiber it crosses and one
// regenerator at every interior regen site.
struct Circuit {
  CircuitId id = kInvalidCircuit;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  std::vector<net::NodeId> regen_sites;  // interior regeneration points
  std::vector<Segment> segments;         // regen_sites.size() + 1 segments
  // Deliverable rate of the circuit. Legacy mode: the plant's fixed theta.
  // QoT mode: the minimum modulation-tier capacity over the segments (each
  // regen resets the SNR budget, so quality is per segment).
  double capacity_gbps = 0.0;

  double TotalLengthKm() const {
    double total = 0.0;
    for (const Segment& s : segments) total += s.length_km;
    return total;
  }
};

std::string ToString(const Circuit& c);

}  // namespace owan::optical

#endif  // OWAN_OPTICAL_CIRCUIT_H_
