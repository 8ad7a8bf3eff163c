// Quickstart: submit bulk transfers to the Owan controller and watch it
// jointly reconfigure the optical layer and route traffic, slot by slot.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "core/owan.h"
#include "service/service.h"
#include "topo/topologies.h"
#include "util/units.h"

int main() {
  using namespace owan;

  // The 9-site Internet2 WAN from the paper's testbed (Fig. 1).
  topo::Wan wan = topo::MakeInternet2();

  // The Owan TE scheme: simulated-annealing topology search + SJF routing.
  core::OwanOptions opt;
  opt.anneal.max_iterations = 300;
  auto scheme = std::make_unique<core::OwanTe>(opt);

  // The controller's slot loop; passthrough mode admits every request and
  // recomputes the network state each slot.
  service::ServiceOptions svc;
  svc.mode = service::ServiceMode::kPassthrough;
  service::ControllerService controller(&wan, std::move(scheme), svc);

  // Submit a few bulk transfers (sizes in gigabits; 500 GB = 4000 Gb).
  const int sea = wan.SiteByName("SEA");
  const int nyc = wan.SiteByName("NYC");
  const int lax = wan.SiteByName("LAX");
  const int chi = wan.SiteByName("CHI");
  auto submit = [&controller](int id, int src, int dst, double size,
                              double deadline = core::kNoDeadline) {
    core::Request r;
    r.id = id;
    r.src = src;
    r.dst = dst;
    r.size = size;
    r.deadline = deadline;
    controller.Submit(r);
  };
  submit(0, sea, nyc, util::GB(500));
  submit(1, lax, chi, util::GB(750));
  submit(2, sea, nyc, util::GB(250), /*deadline=*/util::Minutes(30));

  std::printf("site count: %d, default links: %d\n", wan.optical.NumSites(),
              wan.default_topology.NumLinks());

  int slot = 0;
  while (slot < 50 && controller.Step()) {
    ++slot;
    std::printf("slot %2d | t=%6.0fs | active=%d | topology links=%d | "
                "rate %.0f Gbps | circuit changes so far %lld\n",
                slot, controller.now(), controller.active_transfers(),
                controller.topology().NumLinks(),
                controller.stats().slot_throughput.back().second,
                static_cast<long long>(controller.stats().topology_changes));
  }

  std::printf("\ntransfer completions:\n");
  for (const sim::TransferRecord& t : controller.ToSimResult().transfers) {
    std::printf("  transfer %d: %s in %.0fs (size %.0f Gb)\n", t.request.id,
                t.completed ? "done" : "unfinished",
                t.completed ? t.CompletionTime() : -1.0, t.request.size);
  }
  return 0;
}
