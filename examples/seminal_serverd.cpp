//===- seminal_serverd.cpp - Search-as-a-service daemon ---------------------==//
//
// The long-lived counterpart of seminal_cli (DESIGN.md section 13): one
// process holds every editor session's warm search state -- prefix
// checkpoints, interned-AST verdict caches, conventional-error memos --
// so an edit-resubmit only pays for the suffix that changed. Requests
// are one JSON object per line on stdin (--stdio, the default) or on a
// Unix domain socket (--socket=PATH); both transports can run at once.
//
// Sessions are sharded across worker threads by name, so concurrent
// clients never contend: each session's requests run FIFO on one
// worker, and suggestions are bit-identical to a cold seminal_cli run
// of the same source.
//
// Observability (DESIGN.md section 14): --metrics-port serves
// GET /metrics (Prometheus) and /healthz on localhost; --log-level
// emits structured per-request lines on stderr (--log-json for JSONL);
// --trace-slow-ms captures Chrome traces of slow requests into a
// bounded ring of files under --trace-dir.
//
// Continuous profiling (DESIGN.md section 16): the sampling profiler is
// on by default at 99 Hz (--profile-hz=0 disables it); capture windows
// via the "profile" verb or GET /debug/profile?seconds=N on the metrics
// port. --slo-target-ms / --slo-objective configure the warm-latency
// SLO whose burn-rate gauges /metrics exports.
//
// Usage:
//   seminal_serverd [--stdio] [--socket=PATH] [--threads=N]
//                   [--evict-bytes=N] [--max-suggestions=N]
//                   [--metrics-port=N] [--log-level=LVL] [--log-json]
//                   [--trace-slow-ms=N] [--trace-dir=PATH] [--trace-ring=N]
//                   [--profile-hz=N] [--slo-target-ms=N] [--slo-objective=P]
//
// Try it (pipe a request line into --stdio mode):
//   printf '%s\n' '{"method":"check","id":1,"source":"..."}' | seminal_serverd
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "obs/SlowTraceRing.h"
#include "server/MetricsHttp.h"
#include "server/Server.h"
#include "support/Profiler.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>

using namespace seminal;
using namespace seminal::server;

namespace {

void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--stdio] [--socket=PATH] [--threads=N]\n"
               "          [--evict-bytes=N] [--max-suggestions=N]\n"
               "          [--metrics-port=N] [--log-level=LVL] [--log-json]\n"
               "          [--trace-slow-ms=N] [--trace-dir=PATH]\n"
               "          [--trace-ring=N] [--profile-hz=N]\n"
               "          [--slo-target-ms=N] [--slo-objective=P]\n"
               "  --stdio            serve JSONL requests on stdin/stdout\n"
               "                     (default when --socket is absent)\n"
               "  --socket=PATH      also accept connections on a Unix\n"
               "                     domain socket at PATH\n"
               "  --threads=N        worker (= session shard) count;\n"
               "                     default: hardware concurrency\n"
               "  --evict-bytes=N    per-session arena watermark; crossing\n"
               "                     it drops that session's warm state\n"
               "                     (default 64 MiB)\n"
               "  --max-suggestions=N\n"
               "                     default suggestion cap per check\n"
               "                     (requests may override)\n"
               "  --metrics-port=N   serve GET /metrics, /metrics.json and\n"
               "                     /healthz on 127.0.0.1:N (0 = ephemeral;\n"
               "                     the bound port is printed to stderr)\n"
               "  --log-level=LVL    structured request log on stderr:\n"
               "                     debug|info|warn|error|off (default warn)\n"
               "  --log-json         log JSON lines instead of logfmt\n"
               "  --trace-slow-ms=N  capture a Chrome trace of any request\n"
               "                     slower than N ms (0 = every request)\n"
               "  --trace-dir=PATH   slow-trace directory (default\n"
               "                     seminal-slow-traces)\n"
               "  --trace-ring=N     keep at most N slow-trace files\n"
               "                     (default 8)\n"
               "  --profile-hz=N     sampling-profiler frequency (default\n"
               "                     99; 0 = off). Windows are served by\n"
               "                     the \"profile\" verb and by\n"
               "                     GET /debug/profile?seconds=N\n"
               "  --slo-target-ms=N  warm-latency SLO target (default 50)\n"
               "  --slo-objective=P  %% of warm checks that must meet the\n"
               "                     target (default 99)\n",
               Prog);
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Opts;
  std::string SocketPath;
  bool Stdio = false;
  bool SawTransport = false;
  int MetricsPort = -1;
  obs::LogLevel Level = obs::LogLevel::Warn;
  bool LogJson = false;
  double TraceSlowMs = -1.0;
  std::string TraceDir = "seminal-slow-traces";
  size_t TraceRing = 8;
  int ProfileHz = 99;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--stdio") == 0) {
      Stdio = true;
      SawTransport = true;
    } else if (std::strncmp(Arg, "--socket=", 9) == 0) {
      SocketPath = Arg + 9;
      SawTransport = true;
      if (SocketPath.empty()) {
        std::fprintf(stderr, "--socket needs a path\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--threads=", 10) == 0) {
      int N = std::atoi(Arg + 10);
      if (N <= 0) {
        std::fprintf(stderr, "--threads needs a positive count\n");
        usage(Argv[0]);
        return 2;
      }
      Opts.Threads = unsigned(N);
    } else if (std::strncmp(Arg, "--evict-bytes=", 14) == 0) {
      long long N = std::atoll(Arg + 14);
      if (N <= 0) {
        std::fprintf(stderr, "--evict-bytes needs a positive byte count\n");
        usage(Argv[0]);
        return 2;
      }
      Opts.Session.ArenaEvictBytes = uint64_t(N);
    } else if (std::strncmp(Arg, "--max-suggestions=", 18) == 0) {
      int N = std::atoi(Arg + 18);
      if (N <= 0) {
        std::fprintf(stderr, "--max-suggestions needs a positive count\n");
        usage(Argv[0]);
        return 2;
      }
      Opts.Session.Base.MaxSuggestions = size_t(N);
    } else if (std::strncmp(Arg, "--metrics-port=", 15) == 0) {
      int N = std::atoi(Arg + 15);
      if (N < 0 || N > 65535 ||
          (N == 0 && std::strcmp(Arg + 15, "0") != 0)) {
        std::fprintf(stderr, "--metrics-port needs a port number (0-65535)\n");
        usage(Argv[0]);
        return 2;
      }
      MetricsPort = N;
    } else if (std::strncmp(Arg, "--log-level=", 12) == 0) {
      if (!obs::parseLogLevel(Arg + 12, Level)) {
        std::fprintf(stderr, "--log-level: unknown level '%s'\n", Arg + 12);
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strcmp(Arg, "--log-json") == 0) {
      LogJson = true;
    } else if (std::strncmp(Arg, "--trace-slow-ms=", 16) == 0) {
      TraceSlowMs = std::atof(Arg + 16);
      if (TraceSlowMs < 0) {
        std::fprintf(stderr, "--trace-slow-ms needs a threshold >= 0\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--trace-dir=", 12) == 0) {
      TraceDir = Arg + 12;
      if (TraceDir.empty()) {
        std::fprintf(stderr, "--trace-dir needs a path\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--trace-ring=", 13) == 0) {
      int N = std::atoi(Arg + 13);
      if (N <= 0) {
        std::fprintf(stderr, "--trace-ring needs a positive count\n");
        usage(Argv[0]);
        return 2;
      }
      TraceRing = size_t(N);
    } else if (std::strncmp(Arg, "--profile-hz=", 13) == 0) {
      ProfileHz = std::atoi(Arg + 13);
      if (ProfileHz < 0 || ProfileHz > 1000) {
        std::fprintf(stderr, "--profile-hz needs a frequency in 0..1000\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--slo-target-ms=", 16) == 0) {
      double Ms = std::atof(Arg + 16);
      if (Ms <= 0) {
        std::fprintf(stderr, "--slo-target-ms needs a threshold > 0\n");
        usage(Argv[0]);
        return 2;
      }
      Opts.Slo.TargetUs = uint64_t(Ms * 1000.0);
    } else if (std::strncmp(Arg, "--slo-objective=", 16) == 0) {
      double Pct = std::atof(Arg + 16);
      if (Pct <= 0 || Pct >= 100) {
        std::fprintf(stderr,
                     "--slo-objective needs a percentage in (0, 100)\n");
        usage(Argv[0]);
        return 2;
      }
      Opts.Slo.ObjectivePct = Pct;
    } else if (std::strcmp(Arg, "--help") == 0) {
      usage(Argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg);
      usage(Argv[0]);
      return 2;
    }
  }
  if (!SawTransport)
    Stdio = true;

  obs::Logger Log(std::cerr, Level, LogJson);
  Opts.Log = &Log;
  std::unique_ptr<obs::SlowTraceRing> SlowTraces;
  if (TraceSlowMs >= 0) {
    SlowTraces = std::make_unique<obs::SlowTraceRing>(TraceDir, TraceRing);
    Opts.Session.SlowTraces = SlowTraces.get();
    Opts.Session.TraceSlowMs = TraceSlowMs;
  }

  if (ProfileHz > 0) {
    prof::Profiler::Options PO;
    PO.SampleHz = unsigned(ProfileHz);
    prof::profiler().start(PO);
  }

  ServerEngine Engine(Opts);

  UnixSocketServer Socket(Engine, SocketPath);
  if (!SocketPath.empty()) {
    std::string Error;
    if (!Socket.start(Error)) {
      std::fprintf(stderr, "seminal_serverd: %s\n", Error.c_str());
      return 2;
    }
    std::fprintf(stderr, "seminal_serverd: listening on %s (%u shards)\n",
                 SocketPath.c_str(), Engine.shards());
  }

  MetricsHttpServer Metrics(Engine, uint16_t(MetricsPort < 0 ? 0 : MetricsPort));
  if (MetricsPort >= 0) {
    std::string Error;
    if (!Metrics.start(Error)) {
      std::fprintf(stderr, "seminal_serverd: metrics: %s\n", Error.c_str());
      return 2;
    }
    std::fprintf(stderr, "seminal_serverd: metrics on http://127.0.0.1:%u/metrics\n",
                 unsigned(Metrics.port()));
  }

  if (Stdio) {
    serveStdio(Engine, std::cin, std::cout);
  } else {
    // Socket-only mode: park until a client sends "shutdown".
    while (!Engine.shutdownRequested())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (MetricsPort >= 0)
    Metrics.stop();
  if (!SocketPath.empty())
    Socket.stop();
  Engine.drain();
  if (ProfileHz > 0)
    prof::profiler().stop();
  return 0;
}
