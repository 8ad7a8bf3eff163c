#ifndef OWAN_TE_AMOEBA_H_
#define OWAN_TE_AMOEBA_H_

#include <string>
#include <unordered_map>

#include "core/te_scheme.h"
#include "service/admission.h"

namespace owan::te {

// "Amoeba" baseline (Zhang et al., EuroSys'15): deadline-guaranteed
// admission control with future-slot reservations over a fixed topology.
//
// On arrival, the admission ledger's Offer packs the transfer's volume into
// the earliest whole slots before its deadline along k shortest paths. If
// it all fits, the bookings are the rates Compute serves slot by slot and
// are never adjusted; otherwise the transfer is rejected and later served
// best-effort with leftover capacity.
class AmoebaTe : public core::TeScheme {
 public:
  AmoebaTe(const net::Graph& fixed_topology, double slot_seconds,
           int k_paths = 3);

  std::string name() const override { return "Amoeba"; }
  bool Admit(const core::Request& request, double now) override;
  core::TeOutput Compute(const core::TeInput& input) override;

  // Deadline requests only: best-effort ones count in neither.
  int admitted() const { return admitted_; }
  int rejected() const { return rejected_; }
  const service::AdmissionController& ledger() const { return ledger_; }

 private:
  service::AdmissionController ledger_;
  // Where Compute walks each admitted id's booked edges from. Not the
  // demand's source: the batch simulator lets ids repeat, and every demand
  // with an admitted id is served that id's bookings, never best-effort.
  std::unordered_map<int, net::NodeId> booked_src_;
  int admitted_ = 0;
  int rejected_ = 0;
};

}  // namespace owan::te

#endif  // OWAN_TE_AMOEBA_H_
