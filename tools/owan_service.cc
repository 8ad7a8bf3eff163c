// owan_service — drives the streaming controller service (src/service) over
// a seeded arrival trace on the deterministic virtual clock and prints the
// run's admission/recompute statistics plus its decision fingerprint.
//
// The fingerprint folds every admission verdict, completion, and the final
// in-flight state, so two invocations with the same flags must print the
// same value: the CI soak runs this binary twice (and once more through a
// checkpoint/restore crash at --crash-restore-at) and diffs the lines.
//
// Usage: owan_service [--topo internet2|isp|interdc|motivating] [--seed S]
//                     [--requests N] [--rate ARRIVALS_PER_S] [--bursty]
//                     [--deadline-fraction F] [--mode online|passthrough]
//                     [--scheme greedy|amoeba] [--k-paths K]
//                     [--stale-slots N] [--demand-frac F] [--slot-seconds S]
//                     [--max-hours H] [--no-retain]
//                     [--crash-restore-at N] [--checkpoint-out FILE]
//
// Exit status: 0 success, 1 run error, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "service/service.h"
#include "te/amoeba.h"
#include "te/greedy.h"
#include "topo/topologies.h"
#include "workload/stream.h"

using namespace owan;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--topo internet2|isp|interdc|motivating] [--seed S]\n"
      "          [--requests N] [--rate ARRIVALS_PER_S] [--bursty]\n"
      "          [--deadline-fraction F] [--mode online|passthrough]\n"
      "          [--scheme greedy|amoeba] [--k-paths K] [--stale-slots N]\n"
      "          [--demand-frac F] [--slot-seconds S] [--max-hours H]\n"
      "          [--no-retain] [--crash-restore-at N] "
      "[--checkpoint-out FILE]\n",
      argv0);
  return 2;
}

std::unique_ptr<core::TeScheme> MakeScheme(const std::string& name,
                                           const topo::Wan& wan,
                                           double slot_seconds, int k_paths) {
  if (name == "greedy") return std::make_unique<te::GreedyOwanTe>();
  if (name == "amoeba") {
    return std::make_unique<te::AmoebaTe>(
        wan.default_topology.ToGraph(wan.optical.wavelength_capacity()),
        slot_seconds, k_paths);
  }
  return nullptr;
}

void PrintRun(const service::ControllerService& svc) {
  const service::ServiceStats& s = svc.stats();
  std::printf("requests %llu\n", (unsigned long long)s.requests);
  std::printf("admitted %llu\n", (unsigned long long)s.admitted);
  std::printf("rejected %llu\n", (unsigned long long)s.rejected);
  std::printf("pending_enqueued %llu\n", (unsigned long long)s.pending_enqueued);
  std::printf("pending_admitted %llu\n", (unsigned long long)s.pending_admitted);
  std::printf("pending_rejected %llu\n", (unsigned long long)s.pending_rejected);
  std::printf("completed %llu\n", (unsigned long long)s.completed);
  std::printf("slots %llu\n", (unsigned long long)s.slots);
  std::printf("recomputes %llu\n", (unsigned long long)s.recomputes);
  std::printf("coasts %llu\n", (unsigned long long)s.coasts);
  std::printf("retry_rounds %llu\n", (unsigned long long)s.retry_rounds);
  std::printf("delivered_gigabits %.6f\n", s.delivered_gigabits);
  std::printf("makespan %.6f\n", s.makespan);
  std::printf("compute_seconds %.3f\n", s.compute_seconds);
  std::printf("fingerprint %016llx\n", (unsigned long long)svc.Fingerprint());
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo_name = "internet2";
  std::string scheme_name = "greedy";
  uint64_t requests = 10000;
  uint64_t crash_restore_at = 0;
  std::string checkpoint_out;
  workload::StreamParams params;
  params.arrivals_per_s = 0.05;
  service::ServiceOptions opt;
  opt.retain_records = false;  // traces can be millions of requests

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--topo")) {
      topo_name = next("--topo");
    } else if (!std::strcmp(argv[i], "--seed")) {
      params.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--requests")) {
      requests = std::strtoull(next("--requests"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--rate")) {
      params.arrivals_per_s = std::atof(next("--rate"));
    } else if (!std::strcmp(argv[i], "--bursty")) {
      params.bursty = true;
    } else if (!std::strcmp(argv[i], "--deadline-fraction")) {
      params.deadline_fraction = std::atof(next("--deadline-fraction"));
    } else if (!std::strcmp(argv[i], "--mode")) {
      const std::string m = next("--mode");
      if (m == "online") {
        opt.mode = service::ServiceMode::kOnline;
      } else if (m == "passthrough") {
        opt.mode = service::ServiceMode::kPassthrough;
      } else {
        return Usage(argv[0]);
      }
    } else if (!std::strcmp(argv[i], "--scheme")) {
      scheme_name = next("--scheme");
    } else if (!std::strcmp(argv[i], "--k-paths")) {
      opt.admission_k_paths = std::atoi(next("--k-paths"));
    } else if (!std::strcmp(argv[i], "--stale-slots")) {
      opt.max_stale_slots = std::atoi(next("--stale-slots"));
    } else if (!std::strcmp(argv[i], "--demand-frac")) {
      opt.recompute_demand_frac = std::atof(next("--demand-frac"));
    } else if (!std::strcmp(argv[i], "--slot-seconds")) {
      opt.slot_seconds = std::atof(next("--slot-seconds"));
      params.slot_seconds = opt.slot_seconds;
    } else if (!std::strcmp(argv[i], "--max-hours")) {
      opt.max_time_s = std::atof(next("--max-hours")) * 3600.0;
    } else if (!std::strcmp(argv[i], "--no-retain")) {
      opt.retain_records = false;
    } else if (!std::strcmp(argv[i], "--crash-restore-at")) {
      crash_restore_at = std::strtoull(next("--crash-restore-at"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--checkpoint-out")) {
      checkpoint_out = next("--checkpoint-out");
    } else {
      return Usage(argv[0]);
    }
  }

  try {
    const topo::Wan wan = topo::MakeByName(topo_name);
    auto scheme =
        MakeScheme(scheme_name, wan, opt.slot_seconds, opt.admission_k_paths);
    if (!scheme) return Usage(argv[0]);

    service::ControllerService svc(&wan, std::move(scheme), opt);
    svc.AttachStream(params, requests);

    if (crash_restore_at > 0) {
      // Simulated crash: snapshot mid-run, abandon the process state, and
      // resume a fresh service from the checkpoint text alone. The printed
      // stats/fingerprint must match an uninterrupted run bit-for-bit.
      svc.RunUntilIngested(crash_restore_at);
      const std::string snapshot = svc.Checkpoint();
      if (!checkpoint_out.empty()) {
        std::ofstream out(checkpoint_out);
        out << snapshot;
      }
      auto scheme2 = MakeScheme(scheme_name, wan, opt.slot_seconds,
                                opt.admission_k_paths);
      service::ControllerService resumed = service::ControllerService::Restore(
          &wan, std::move(scheme2), snapshot, opt);
      resumed.AttachStream(params, requests);
      resumed.Run();
      PrintRun(resumed);
      return 0;
    }

    svc.Run();
    if (!checkpoint_out.empty()) {
      std::ofstream out(checkpoint_out);
      out << svc.Checkpoint();
    }
    PrintRun(svc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "owan_service: %s\n", e.what());
    return 1;
  }
  return 0;
}
