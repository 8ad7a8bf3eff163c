// owan_cli — command-line experiment runner.
//
//   owan_cli [--topology internet2|isp|interdc] [--scheme NAME]
//            [--load F] [--sigma F] [--seed N] [--duration S]
//            [--slot S] [--anneal N] [--chains K] [--threads T]
//            [--batch B] [--tsv]
//
// Schemes: owan, owan-rate, owan-routing, maxflow, maxminfract, swan,
// tempus, amoeba, greedy. With --tsv the completion-time CDF is printed as
// tab-separated rows for plotting.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/owan.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "te/amoeba.h"
#include "te/greedy.h"
#include "te/lp_baselines.h"
#include "topo/topologies.h"
#include "workload/workload.h"

using namespace owan;

namespace {

struct Args {
  std::string topology = "internet2";
  std::string scheme = "owan";
  double load = 1.0;
  double sigma = 0.0;
  uint64_t seed = 17;
  double duration = 3600.0;
  double slot = 300.0;
  int anneal = 300;
  int chains = 1;
  int threads = 1;
  int batch = 1;
  bool tsv = false;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: owan_cli [--topology internet2|isp|interdc]\n"
      "                [--scheme owan|owan-rate|owan-routing|maxflow|\n"
      "                 maxminfract|swan|tempus|amoeba|greedy]\n"
      "                [--load F] [--sigma F] [--seed N] [--duration S]\n"
      "                [--slot S] [--anneal N] [--chains K] [--threads T]\n"
      "                [--batch B] [--tsv]\n");
  return 2;
}

std::unique_ptr<core::TeScheme> MakeScheme(const Args& args,
                                           const topo::Wan& wan) {
  core::OwanOptions opt;
  opt.anneal.max_iterations = args.anneal;
  opt.anneal.num_chains = args.chains;
  opt.anneal.num_threads = args.threads;
  opt.anneal.batch_size = args.batch;
  opt.seed = args.seed;
  if (args.sigma > 1.0) {
    opt.anneal.routing.policy.policy =
        core::SchedulingPolicy::kEarliestDeadlineFirst;
  }
  if (args.scheme == "owan") return std::make_unique<core::OwanTe>(opt);
  if (args.scheme == "owan-rate") {
    opt.control = core::ControlLevel::kRateOnly;
    return std::make_unique<core::OwanTe>(opt);
  }
  if (args.scheme == "owan-routing") {
    opt.control = core::ControlLevel::kRateAndRouting;
    return std::make_unique<core::OwanTe>(opt);
  }
  if (args.scheme == "maxflow") return std::make_unique<te::MaxFlowTe>();
  if (args.scheme == "maxminfract") {
    return std::make_unique<te::MaxMinFractTe>();
  }
  if (args.scheme == "swan") return std::make_unique<te::SwanTe>();
  if (args.scheme == "tempus") return std::make_unique<te::TempusTe>();
  if (args.scheme == "amoeba") {
    return std::make_unique<te::AmoebaTe>(
        wan.default_topology.ToGraph(wan.optical.wavelength_capacity()),
        args.slot);
  }
  if (args.scheme == "greedy") return std::make_unique<te::GreedyOwanTe>();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](double& out) {
      if (i + 1 >= argc) return false;
      out = std::atof(argv[++i]);
      return true;
    };
    if (!std::strcmp(argv[i], "--topology") && i + 1 < argc) {
      args.topology = argv[++i];
    } else if (!std::strcmp(argv[i], "--scheme") && i + 1 < argc) {
      args.scheme = argv[++i];
    } else if (!std::strcmp(argv[i], "--load")) {
      if (!next(args.load)) return Usage();
      if (!(std::isfinite(args.load) && args.load >= 0.0)) return Usage();
    } else if (!std::strcmp(argv[i], "--sigma")) {
      if (!next(args.sigma)) return Usage();
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--duration")) {
      if (!next(args.duration)) return Usage();
      if (!(std::isfinite(args.duration) && args.duration > 0.0)) {
        return Usage();
      }
    } else if (!std::strcmp(argv[i], "--slot")) {
      if (!next(args.slot)) return Usage();
      if (!(std::isfinite(args.slot) && args.slot > 0.0)) return Usage();
    } else if (!std::strcmp(argv[i], "--anneal") && i + 1 < argc) {
      args.anneal = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--chains") && i + 1 < argc) {
      args.chains = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      args.threads = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--batch") && i + 1 < argc) {
      args.batch = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--tsv")) {
      args.tsv = true;
    } else {
      return Usage();
    }
  }

  topo::Wan wan = args.topology == "isp"       ? topo::MakeIspBackbone()
                  : args.topology == "interdc" ? topo::MakeInterDc()
                  : args.topology == "internet2"
                      ? topo::MakeInternet2()
                      : topo::Wan{"", topo::MakeInternet2().optical, {}, {}};
  if (wan.name.empty()) return Usage();

  auto scheme = MakeScheme(args, wan);
  if (!scheme) return Usage();

  workload::WorkloadParams wp;
  wp.duration_s = args.duration;
  wp.mean_size = wan.name == "internet2" ? 4000.0 : 40000.0;
  wp.load_factor = args.load;
  wp.deadline_factor = args.sigma;
  wp.slot_seconds = args.slot;
  wp.seed = args.seed;
  wp.hotspots = wan.name == "interdc";
  const auto reqs = workload::GenerateWorkload(wan, wp);

  sim::SimOptions so;
  so.slot_seconds = args.slot;
  const auto res = sim::RunSimulation(wan, reqs, *scheme, so);
  const auto ct = sim::CompletionTimes(res);

  std::printf("# topology=%s scheme=%s load=%.2f sigma=%.1f seed=%llu "
              "transfers=%zu\n",
              wan.name.c_str(), scheme->name().c_str(), args.load,
              args.sigma, static_cast<unsigned long long>(args.seed),
              reqs.size());
  // No transfer completed (an empty workload): no completion times.
  if (!ct.empty()) {
    std::printf("avg_completion_s\t%.1f\n", ct.Mean());
    std::printf("p50_completion_s\t%.1f\n", ct.Median());
    std::printf("p95_completion_s\t%.1f\n", ct.Percentile(95));
  }
  std::printf("makespan_s\t%.1f\n", res.makespan);
  std::printf("topology_changes\t%d\n", res.topology_changes);
  if (args.sigma > 1.0) {
    std::printf("pct_deadlines_met\t%.1f\n",
                100.0 * res.FractionMeetingDeadline());
    std::printf("pct_bytes_by_deadline\t%.1f\n",
                100.0 * res.FractionBytesByDeadline());
  }
  if (args.tsv) {
    std::printf("# CDF: completion_s\tfraction\n");
    std::printf("%s", sim::CdfToTsv(ct, 50).c_str());
  }
  return 0;
}
