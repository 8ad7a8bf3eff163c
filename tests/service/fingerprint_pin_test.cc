// Pinned Fingerprint() values of streaming ControllerService runs: online
// admission with one-path and k-path ledgers, bursty arrivals in the
// constant-memory soak mode, a checkpoint/restore resume, and passthrough
// mode fed through Submit. A refactor of the service loop must keep every
// value unchanged.
#include <gtest/gtest.h>

#include <memory>

#include "service/service.h"
#include "te/amoeba.h"
#include "te/greedy.h"
#include "topo/topologies.h"
#include "workload/stream.h"

namespace owan::service {
namespace {

#define EXPECT_FINGERPRINT(svc, pinned)                            \
  EXPECT_EQ((svc).Fingerprint(), pinned##ULL)                      \
      << std::hex << "fingerprint 0x" << (svc).Fingerprint()       \
      << std::dec << " (slots " << (svc).stats().slots << ")"

workload::StreamParams Params(uint64_t seed, double rate) {
  workload::StreamParams p;
  p.arrivals_per_s = rate;
  p.seed = seed;
  return p;
}

ServiceOptions Online(int k_paths) {
  ServiceOptions opt;
  opt.mode = ServiceMode::kOnline;
  opt.admission_k_paths = k_paths;
  return opt;
}

TEST(ServiceFingerprintPin, OnlineSinglePathInternet2) {
  const topo::Wan wan = topo::MakeInternet2();
  ControllerService svc(&wan, std::make_unique<te::GreedyOwanTe>(),
                        Online(1));
  svc.AttachStream(Params(21, 0.05), 150);
  svc.Run();
  EXPECT_EQ(svc.stats().requests, 150u);
  EXPECT_FINGERPRINT(svc, 0xad88b54b9f72a511);
}

TEST(ServiceFingerprintPin, OnlineBurstySoakIsp40) {
  const topo::Wan wan = topo::MakeByName("isp40");
  ServiceOptions opt = Online(3);
  opt.retain_records = false;
  workload::StreamParams p = Params(8, 0.2);
  p.bursty = true;
  p.elephant_fraction = 0.5;
  p.elephant_min = 40000.0;
  p.elephant_max = 400000.0;
  p.laxity_max_slots = 4.0;
  ControllerService svc(&wan, std::make_unique<te::GreedyOwanTe>(), opt);
  svc.AttachStream(p, 400);
  svc.Run();
  EXPECT_GT(svc.stats().pending_enqueued, 0u);
  EXPECT_GT(svc.stats().coasts, 0u);
  EXPECT_FINGERPRINT(svc, 0xe4ac7f98a67eaf85);
}

TEST(ServiceFingerprintPin, OnlineAcrossCheckpointRestore) {
  const topo::Wan wan = topo::MakeInternet2();
  const workload::StreamParams params = Params(55, 0.05);
  ControllerService crashed(&wan, std::make_unique<te::GreedyOwanTe>(),
                            Online(1));
  crashed.AttachStream(params, 120);
  crashed.RunUntilIngested(60);
  EXPECT_FINGERPRINT(crashed, 0x24a9af8f59a890b0);
  ControllerService resumed = ControllerService::Restore(
      &wan, std::make_unique<te::GreedyOwanTe>(), crashed.Checkpoint(),
      Online(1));
  resumed.AttachStream(params, 120);
  resumed.Run();
  EXPECT_FINGERPRINT(resumed, 0x89b2659f539e44f9);
}

TEST(ServiceFingerprintPin, PassthroughSubmitAmoeba) {
  const topo::Wan wan = topo::MakeInternet2();
  const net::Graph g =
      wan.default_topology.ToGraph(wan.optical.wavelength_capacity());
  ServiceOptions opt;
  opt.mode = ServiceMode::kPassthrough;
  ControllerService svc(&wan, std::make_unique<te::AmoebaTe>(g, 300.0), opt);
  for (const core::Request& r :
       workload::TakeStream(wan, Params(13, 0.01), 60)) {
    svc.Submit(r);
  }
  svc.Run();
  EXPECT_FINGERPRINT(svc, 0xce643a3061a433b0);
}

}  // namespace
}  // namespace owan::service
