#include "service/admission.h"

#include <algorithm>
#include <cmath>

#include "net/shortest_path.h"
#include "obs/obs.h"

namespace owan::service {

namespace {
constexpr double kEps = 1e-7;
}

AdmissionController::AdmissionController(const net::Graph& topology,
                                         AdmissionOptions options)
    : topo_(topology), options_(options) {}

int64_t AdmissionController::SlotIndex(double t) const {
  return static_cast<int64_t>(std::floor((t + 1e-9) / options_.slot_seconds));
}

int64_t AdmissionController::FirstUsableSlot(double now) const {
  return static_cast<int64_t>(std::ceil((now - 1e-9) / options_.slot_seconds));
}

int64_t AdmissionController::LastUsableSlot(double deadline) const {
  return static_cast<int64_t>(std::floor(deadline / options_.slot_seconds)) -
         1;
}

bool AdmissionController::WindowClosed(const core::Request& r,
                                       double now) const {
  return r.HasDeadline() && LastUsableSlot(r.deadline) < FirstUsableSlot(now);
}

std::vector<double>& AdmissionController::SlotResidual(int64_t slot) {
  auto it = residual_.find(slot);
  if (it == residual_.end()) {
    std::vector<double> caps(static_cast<size_t>(topo_.NumEdges()));
    for (net::EdgeId e = 0; e < topo_.NumEdges(); ++e) {
      caps[static_cast<size_t>(e)] =
          topo_.edge(e).capacity * options_.slot_seconds;
    }
    it = residual_.emplace(slot, std::move(caps)).first;
  }
  return it->second;
}

const std::vector<net::Path>& AdmissionController::Paths(
    net::NodeId src, net::NodeId dst) const {
  auto key = std::make_pair(src, dst);
  auto it = path_cache_.find(key);
  if (it == path_cache_.end()) {
    it = path_cache_
             .emplace(key,
                      net::KShortestPaths(topo_, src, dst, options_.k_paths))
             .first;
  }
  return it->second;
}

double AdmissionController::Free(int64_t slot, net::EdgeId e) const {
  const auto rit = residual_.find(slot);
  double free = rit == residual_.end()
                    ? topo_.edge(e).capacity * options_.slot_seconds
                    : rit->second[static_cast<size_t>(e)];
  const auto hit = held_.find(slot);
  if (hit != held_.end()) free -= hit->second[static_cast<size_t>(e)];
  return free;
}

std::vector<double>& AdmissionController::HeldIn(int64_t slot) {
  std::vector<double>& held = held_[slot];
  if (held.empty()) held.assign(static_cast<size_t>(topo_.NumEdges()), 0.0);
  return held;
}

void AdmissionController::Hold(int64_t slot,
                               const std::vector<net::EdgeId>& edges,
                               double volume) {
  std::vector<double>& held = HeldIn(slot);
  for (net::EdgeId e : edges) held[static_cast<size_t>(e)] += volume;
  held_bookings_[slot].push_back(Booking{edges, volume});
}

void AdmissionController::Commit(int id) {
  for (auto& [s, held] : held_) {
    std::vector<double>& res = SlotResidual(s);
    for (size_t e = 0; e < res.size(); ++e) res[e] -= held[e];
  }
  reservations_[id] = std::move(held_bookings_);
  Abandon();
}

void AdmissionController::Abandon() {
  held_.clear();
  held_bookings_.clear();
}

net::EdgeId AdmissionController::AddEdge(net::NodeId u, net::NodeId v,
                                         double weight, double capacity) {
  const net::EdgeId e = topo_.AddEdge(u, v, weight, capacity);
  for (auto& [s, res] : residual_) {
    res.push_back(capacity * options_.slot_seconds);
  }
  for (auto& [s, held] : held_) held.push_back(0.0);
  path_cache_.clear();
  return e;
}

const std::vector<AdmissionController::Booking>* AdmissionController::Bookings(
    int id, int64_t slot) const {
  const auto rit = reservations_.find(id);
  if (rit == reservations_.end()) return nullptr;
  const auto sit = rit->second.find(slot);
  return sit == rit->second.end() ? nullptr : &sit->second;
}

Admission AdmissionController::Offer(const core::Request& r, double now) {
  if (!r.HasDeadline()) {
    // Best-effort traffic is never gated — it rides leftover capacity.
    ++admitted_;
    return Admission::kAdmitted;
  }

  const std::vector<net::Path>& paths = Paths(r.src, r.dst);
  if (paths.empty() || WindowClosed(r, now)) {
    ++rejected_;
    return Admission::kRejected;
  }

  double remaining = r.size;
  const int64_t last = LastUsableSlot(r.deadline);
  for (int64_t s = FirstUsableSlot(now); s <= last && remaining > kEps; ++s) {
    const std::vector<double>& res = SlotResidual(s);
    std::vector<double>& held = HeldIn(s);
    for (const net::Path& p : paths) {
      if (remaining <= kEps) break;
      double avail = remaining;
      for (net::EdgeId e : p.edges) {
        avail = std::min(avail, res[static_cast<size_t>(e)] -
                                    held[static_cast<size_t>(e)]);
      }
      if (avail <= kEps) continue;
      Hold(s, p.edges, avail);
      remaining -= avail;
    }
  }

  if (remaining > kEps) {
    // Not rejected outright: the window is open and a Release may free
    // enough future capacity. The caller queues it and re-offers.
    Abandon();
    return Admission::kPending;
  }

  Commit(r.id);
  ++admitted_;
  OWAN_COUNT("service.admission_booked");
  return Admission::kAdmitted;
}

double AdmissionController::Release(int id, double now) {
  // The slot containing `now` (and everything before it) has already been
  // spent serving the transfer; only strictly-future slots come back.
  return ReleaseFrom(id, SlotIndex(now) + 1);
}

double AdmissionController::ReleaseFrom(int id, int64_t first_slot) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return 0.0;
  double released = 0.0;
  // Bookings before `first_slot` stay in the table — the residual ledger
  // still reflects them, so dropping them here would make Audit() see
  // phantom drift — until GarbageCollect retires slot and ledger together.
  auto& slots = it->second;
  for (auto sit = slots.lower_bound(first_slot); sit != slots.end();
       sit = slots.erase(sit)) {
    std::vector<double>& res = SlotResidual(sit->first);
    for (const Booking& b : sit->second) {
      for (net::EdgeId e : b.edges) res[static_cast<size_t>(e)] += b.volume;
      released += b.volume;
    }
  }
  if (slots.empty()) reservations_.erase(it);
  if (released > kEps) {
    capacity_released_ = true;
    OWAN_HISTO("service.released_gigabits", ::owan::obs::Unit::kGigabits,
               released);
  }
  return released;
}

void AdmissionController::GarbageCollect(double now) {
  const int64_t current = SlotIndex(now);
  residual_.erase(residual_.begin(), residual_.lower_bound(current));
  for (auto it = reservations_.begin(); it != reservations_.end();) {
    auto& slots = it->second;
    slots.erase(slots.begin(), slots.lower_bound(current));
    it = slots.empty() ? reservations_.erase(it) : std::next(it);
  }
}

std::vector<std::string> AdmissionController::Audit() const {
  std::vector<std::string> violations;
  // Reconstruct per-slot bookings from the reservation table and compare
  // with the ledger. Only slots with a residual entry are checkable (lazily
  // absent slots are at full capacity by construction).
  std::map<int64_t, std::vector<double>> booked;
  for (const auto& [id, slots] : reservations_) {
    for (const auto& [s, evs] : slots) {
      std::vector<double>& b = booked[s];
      if (b.empty()) b.assign(static_cast<size_t>(topo_.NumEdges()), 0.0);
      for (const Booking& ev : evs) {
        for (net::EdgeId e : ev.edges) b[static_cast<size_t>(e)] += ev.volume;
      }
    }
  }
  for (const auto& [s, res] : residual_) {
    for (net::EdgeId e = 0; e < topo_.NumEdges(); ++e) {
      const double cap = topo_.edge(e).capacity * options_.slot_seconds;
      const double used =
          booked.count(s) ? booked[s][static_cast<size_t>(e)] : 0.0;
      const double r = res[static_cast<size_t>(e)];
      if (r < -1e-6) {
        violations.push_back("slot " + std::to_string(s) + " edge " +
                             std::to_string(e) + " oversubscribed: residual " +
                             std::to_string(r));
      }
      if (std::abs(cap - used - r) > 1e-6 * std::max(1.0, cap)) {
        violations.push_back("slot " + std::to_string(s) + " edge " +
                             std::to_string(e) +
                             " ledger drift: cap-used=" +
                             std::to_string(cap - used) + " residual=" +
                             std::to_string(r));
      }
    }
  }
  for (const auto& [s, b] : booked) {
    if (residual_.count(s)) continue;
    // Bookings on a slot with no ledger entry means the ledger lost track.
    violations.push_back("slot " + std::to_string(s) +
                         " has bookings but no residual entry");
  }
  return violations;
}

void AdmissionController::Checkpoint(std::ostream& os) const {
  os << "adm " << admitted_ << " " << rejected_ << " " << capacity_released_
     << "\n";
  for (const auto& [id, slots] : reservations_) {
    os << "aresv " << id << " " << slots.size() << "\n";
    for (const auto& [s, evs] : slots) {
      os << "aslot " << s << " " << evs.size() << "\n";
      for (const Booking& ev : evs) {
        os << "abook " << ev.volume << " " << ev.edges.size();
        for (net::EdgeId e : ev.edges) os << " " << e;
        os << "\n";
      }
    }
  }
  // The residual ledger itself is not serialized: FinishRestore rebuilds it
  // from the reservations, and slots that carried bookings later fully
  // released are indistinguishable from lazily-created full slots.
}

bool AdmissionController::RestoreLine(const std::string& tag,
                                      std::istream& ls) {
  if (tag == "adm") {
    ls >> admitted_ >> rejected_ >> capacity_released_;
  } else if (tag == "aresv") {
    int id = 0;
    size_t nslots = 0;
    ls >> id >> nslots;
    if (!ls.fail()) {
      restore_resv_ = &reservations_[id];
      restore_slot_ = nullptr;
    }
  } else if (tag == "aslot") {
    int64_t s = 0;
    size_t n = 0;
    ls >> s >> n;
    if (!ls.fail() && restore_resv_ != nullptr) {
      restore_slot_ = &(*restore_resv_)[s];
    } else if (restore_resv_ == nullptr) {
      ls.setstate(std::ios::failbit);
    }
  } else if (tag == "abook") {
    Booking ev;
    size_t n = 0;
    ls >> ev.volume >> n;
    for (size_t k = 0; k < n && !ls.fail(); ++k) {
      net::EdgeId e;
      ls >> e;
      ev.edges.push_back(e);
    }
    if (restore_slot_ == nullptr) ls.setstate(std::ios::failbit);
    if (!ls.fail()) restore_slot_->push_back(std::move(ev));
  } else {
    return false;
  }
  return true;
}

void AdmissionController::FinishRestore() {
  residual_.clear();
  for (const auto& [id, slots] : reservations_) {
    for (const auto& [s, evs] : slots) {
      std::vector<double>& res = SlotResidual(s);
      for (const Booking& ev : evs) {
        for (net::EdgeId e : ev.edges) {
          res[static_cast<size_t>(e)] -= ev.volume;
        }
      }
    }
  }
  restore_resv_ = nullptr;
  restore_slot_ = nullptr;
}

}  // namespace owan::service
