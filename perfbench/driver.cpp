// perfbench driver: generates the benchmark's seeded inputs and runs
// one workload against the ictm library (or an `ictm serve` process),
// printing its raw measurements as one JSON object on the last line of
// stdout.  perfbench/run.py builds this program, caches the inputs and
// passes the workload configuration; see perfbench/README.md.
//
//   perfbench gen-geant OUT.ictmb SEED WEEKS
//   perfbench gen-hier  OUT.ictmb SEED BINS NODES
//   perfbench stream --trace-in F --topology SPEC --window W ...
//   perfbench serve  --ictm BIN --trace-in F ...
//
// Every timing is taken from outside the library: the driver times the
// calls it makes into each module's public functions and, in a traced
// run, records its own spans around them (kept in memory, written as
// Chrome trace_event JSON at exit).  It also reads the library's
// existing obs registry snapshot.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "conngen/generator.hpp"
#include "conngen/netflow.hpp"
#include "core/estimation.hpp"
#include "core/ic_model.hpp"
#include "core/synthesis.hpp"
#include "dataset/datasets.hpp"
#include "obs/metrics.hpp"
#include "server/checkpoint.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "stream/format.hpp"
#include "stream/online.hpp"
#include "timeseries/cyclostationary.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"

extern char** environ;

namespace {

using namespace ictm;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

// ---- arguments ---------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;

  std::string str(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  double num(const std::string& key) const { return std::stod(str(key)); }
  std::size_t size(const std::string& key) const {
    return static_cast<std::size_t>(std::stoull(str(key)));
  }
  std::vector<double> list(const std::string& key) const {
    std::vector<double> out;
    std::stringstream ss(str(key));
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
    return out;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("bad arg " + key);
    a.kv[key.substr(2)] = argv[i + 1];
  }
  return a;
}

// ---- statistics ----------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Quantile `q` of a latency series in its best window.  The series is
// cut into consecutive windows of at least `window` samples (fewer
// samples make one window).  On a shared host, interference only ever
// adds latency: a descheduled vCPU stalls the whole pipeline for 5-20
// ms, and under load that hits a few percent of bins.  The quietest
// window is the figure that repeats from run to run, while a change
// that slows every bin still moves every window.
double BestWindow(const std::vector<double>& v, double q,
                  std::size_t window) {
  const std::size_t windows = std::max<std::size_t>(1, v.size() / window);
  double best = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<long>(w * v.size() / windows);
    const auto last =
        v.begin() + static_cast<long>((w + 1) * v.size() / windows);
    const double x = Quantile(std::vector<double>(first, last), q);
    best = w == 0 ? x : std::min(best, x);
  }
  return best;
}

// p50 over windows of 200 bins; p99 over windows of 1000, which leaves
// ten samples beyond each window's p99.
double LatencyP50(const std::vector<double>& v) {
  return BestWindow(v, 0.5, 200);
}
double LatencyP99(const std::vector<double>& v) {
  return BestWindow(v, 0.99, 1000);
}

std::uint64_t Fnv(const void* data, std::size_t len,
                  std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t BinHash(const double* est, const double* prior,
                      std::size_t cells) {
  return Fnv(prior, cells * sizeof(double),
             Fnv(est, cells * sizeof(double)));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool SameFile(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  const std::string sa((std::istreambuf_iterator<char>(fa)), {});
  const std::string sb((std::istreambuf_iterator<char>(fb)), {});
  return sa == sb;
}

// ---- registry snapshot ---------------------------------------------------------

std::uint64_t CounterOf(const obs::MetricsSnapshot& s,
                        const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Quantile of a registry histogram, interpolated log-linearly inside
// the bucket that holds it (the buckets are decades).
double HistogramQuantile(const obs::MetricsSnapshot& s,
                         const std::string& name, double q) {
  for (const auto& h : s.histograms) {
    if (h.name != name || h.total == 0) continue;
    const double target = q * static_cast<double>(h.total);
    double seen = 0.0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      const double c = static_cast<double>(h.counts[b]);
      if (seen + c >= target && c > 0) {
        const double lo = b == 0 ? h.bounds.front() / 10.0 : h.bounds[b - 1];
        const double hi =
            b < h.bounds.size() ? h.bounds[b] : h.bounds.back() * 10.0;
        const double frac = (target - seen) / c;
        return lo * std::pow(hi / lo, frac);
      }
      seen += c;
    }
  }
  return 0.0;
}

// ---- benchmark-side spans --------------------------------------------------------

// Spans recorded by the driver around its calls into the library.  A
// span names its layer (the Chrome `cat`), its parent span and, for
// per-bin work, the bin's sequence number, which every span of one bin
// shares.  Disabled logs record nothing.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    long long bin = -1;
    int tid = 0;
    bool closed = false;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int open(const char* name, const char* layer, int parent,
           long long bin = -1) {
    if (!enabled_) return -1;
    const double now = NowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        {name, layer, now, now, parent, bin, threadIndex(), false});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    if (id < 0) return;
    const double now = NowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    if (!span.closed) span.endUs = now;
    span.closed = true;
  }

  // Records a span whose interval was measured by the caller.
  void add(const char* name, const char* layer, int parent, long long bin,
           double startUs, double endUs) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        {name, layer, startUs, endUs, parent, bin, threadIndex(), true});
  }

  // End of a span, safe while other threads still record.
  double endUs(int id) {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_[static_cast<std::size_t>(id)].endUs;
  }

  // The spans and the queries below read without the lock: call them
  // only once no other thread records.
  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer of the root's descendants that ran on the
  // root's own thread (the critical path of a job), in microseconds.
  std::map<std::string, double> selfTimeUs(int root) const {
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].endUs - spans_[i].startUs;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (p >= 0 && spans_[static_cast<std::size_t>(p)].tid == spans_[i].tid) {
        self[static_cast<std::size_t>(p)] -= spans_[i].endUs - spans_[i].startUs;
      }
    }
    std::map<std::string, double> out;
    const int rootTid = spans_[static_cast<std::size_t>(root)].tid;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (static_cast<int>(i) == root || spans_[i].tid != rootTid) continue;
      if (!descends(static_cast<int>(i), root)) continue;
      out[spans_[i].layer] += std::max(0.0, self[i]);
    }
    return out;
  }

  // Total duration of the named spans under `root`, in microseconds.
  std::vector<double> durationsUs(const std::string& name, int root) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name && descends(static_cast<int>(i), root)) {
        out.push_back(spans_[i].endUs - spans_[i].startUs);
      }
    }
    return out;
  }

  double durationUs(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.endUs - s.startUs;
  }

  void writeChrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"bin\":%lld}}\n",
                    i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(), s.tid,
                    s.startUs, std::max(0.0, s.endUs - s.startUs), i,
                    s.parent, s.bin);
      out << buf;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  bool descends(int i, int root) const {
    for (int p = i; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) {
      if (p == root) return true;
    }
    return false;
  }

  int threadIndex() {
    const auto id = std::this_thread::get_id();
    const auto it = threads_.find(id);
    if (it != threads_.end()) return it->second;
    const int next = static_cast<int>(threads_.size()) + 1;
    threads_.emplace(id, next);
    return next;
  }

  bool enabled_ = false;
  std::mutex mutex_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, const char* layer, int parent,
            long long bin = -1)
      : log_(log), id_(log.open(name, layer, parent, bin)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- JSON output ---------------------------------------------------------------

// A flat JSON object of named numbers; a later value replaces an
// earlier one of the same name.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : -1.0);
    items_[key] = buf;
  }
  std::string str() const {
    std::string s = "{";
    for (const auto& [key, value] : items_) {
      s += (s.size() > 1 ? ",\"" : "\"") + key + "\":" + value;
    }
    return s + "}";
  }

 private:
  std::map<std::string, std::string> items_;
};

// ---- input generation ------------------------------------------------------------

// Writes the parts, in order, as one delta-coded trace.
void WriteSeries(const std::string& path,
                 const std::vector<traffic::TrafficMatrixSeries>& parts) {
  stream::TraceWriterOptions options;
  options.codec = stream::ChunkCodec::kDelta;
  stream::TraceWriter writer(path + ".tmp", parts.front().nodeCount(),
                             parts.front().binSeconds(), options);
  for (const auto& series : parts) {
    for (std::size_t t = 0; t < series.binCount(); ++t) {
      writer.append(series.binData(t));
    }
  }
  writer.close();
  std::filesystem::rename(path + ".tmp", path);
}

// The workloads fix the network (preferences and per-node activity
// levels, drawn from a structural seed, as an operator's network stays
// the same week to week) and let the run's seed draw the traffic
// realised on it.  Per-seed figures then differ by traffic noise, not
// by which network the seed happened to build.
constexpr std::uint64_t kNetworkSeed = 2006;

// Géant-like D1 stand-in, built as dataset::MakeGeantLike builds it
// (same preference draw and cap, activity model, connection-level
// generator with pair-f jitter, and 1/1000 netflow sampling), with the
// network from kNetworkSeed and the connections and sampling from
// `seed`.  The netflow-sampled series is what the operator measures and
// the truth the estimator is scored against.  Connections never span
// bins (and the pair-f jitter is a fixed function of the pair), so the
// trace is generated as four parts in parallel, part p from its own
// generator seeded by (seed, p).
int GenGeant(const std::string& out, std::uint64_t seed, std::size_t weeks) {
  constexpr std::size_t kNodes = 22, kBinsPerWeek = 2016;
  dataset::DatasetConfig config;
  config.seed = kNetworkSeed;
  const linalg::Vector preference =
      dataset::MakeSmallDataset(kNodes, 7, 300.0, config).truePreference;
  timeseries::ActivityModel model;
  model.profile.binsPerDay = kBinsPerWeek / 7;
  model.peakLevel = config.peakActivityBytes;
  model.phaseJitterHours = 3.0;
  stats::Rng network(kNetworkSeed);
  const auto activities = timeseries::GenerateActivityEnsemble(
      kNodes, kBinsPerWeek * weeks, model, config.peakLogSigma, network);
  constexpr std::size_t kParts = 4;
  const std::size_t bins = kBinsPerWeek * weeks;
  std::vector<traffic::TrafficMatrixSeries> parts(
      kParts, traffic::TrafficMatrixSeries(kNodes, 1));
  std::vector<std::thread> pool;
  for (std::size_t p = 0; p < kParts; ++p) {
    pool.emplace_back([&, p] {
      conngen::GeneratorConfig gen;
      for (const auto& a : activities) {
        gen.activities.emplace_back(
            a.begin() + static_cast<long>(p * bins / kParts),
            a.begin() + static_cast<long>((p + 1) * bins / kParts));
      }
      gen.preferences = preference;
      gen.pairFJitterSigma = config.pairFJitterSigma;
      stats::Rng rng(seed * 1000003ULL + p);
      const conngen::GeneratedTraffic traffic =
          conngen::GenerateTraffic(gen, 300.0, rng);
      parts[p] = conngen::ApplyNetflowSampling(
          traffic.series, conngen::NetflowConfig{}, rng);
    });
  }
  for (auto& t : pool) t.join();
  WriteSeries(out, parts);
  return 0;
}

// IC-synthesized traffic as core::GenerateSyntheticTm composes it
// (lognormal preferences with sigma 1.7, cyclo-stationary activities,
// stable-fP model).  The preferences and the activity ensemble come
// from kNetworkSeed; `seed` draws a mean-one lognormal jitter (sigma
// 0.1) on every activity A_i(t), the bin-to-bin noise of the traffic
// realised on that network.
int GenHier(const std::string& out, std::uint64_t seed, std::size_t bins,
            std::size_t nodes) {
  core::SynthesisConfig config;
  config.nodes = nodes;
  config.bins = bins;
  config.preferenceSigma = 1.7;
  config.activityModel.profile.binsPerDay = 288;  // 5-minute bins
  config.threads = 4;
  stats::Rng network(kNetworkSeed);
  core::SyntheticTm synth = core::GenerateSyntheticTm(config, network);
  constexpr double kJitter = 0.1;
  stats::Rng rng(seed);
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t t = 0; t < bins; ++t) {
      synth.activitySeries(i, t) *=
          std::exp(rng.gaussian(-0.5 * kJitter * kJitter, kJitter));
    }
  }
  WriteSeries(out, {core::EvaluateStableFP(config.f, synth.activitySeries,
                                           synth.preference,
                                           config.binSeconds, 4)});
  return 0;
}

// ---- stream workloads ----------------------------------------------------------------

struct StreamConfig {
  std::string trace;
  std::string topology;
  std::size_t window = 0;
  std::size_t threads = 4;
  std::string work;
};

struct Setup {
  linalg::CsrMatrix routing;
  std::shared_ptr<const core::AugmentedTmSystem> system;
  std::size_t nodes = 0;
  double routingMs = 0.0;
  double systemMs = 0.0;
};

Setup BuildSetup(const std::string& spec, SpanLog& spans, int parent) {
  Setup s;
  const double t0 = NowUs();
  {
    SpanScope span(spans, "topology.routing", "topology", parent);
    const topology::Graph g = topology::MakeTopology(spec, 0);
    s.nodes = g.nodeCount();
    s.routing = topology::BuildRoutingCsr(g);
  }
  const double t1 = NowUs();
  {
    SpanScope span(spans, "core.system", "core", parent);
    s.system = std::make_shared<const core::AugmentedTmSystem>(
        s.routing, s.nodes, true);
  }
  const double t2 = NowUs();
  s.routingMs = (t1 - t0) / 1e3;
  s.systemMs = (t2 - t1) / 1e3;
  return s;
}

stream::StreamingOptions Options(const StreamConfig& c, std::size_t threads) {
  stream::StreamingOptions o;
  o.threads = threads;
  o.window = c.window;
  return o;
}

struct JobResult {
  double setupS = 0.0;
  double procS = 0.0;
  std::size_t bins = 0;
  std::size_t failed = 0;
  double errEst = 0.0, errPrior = 0.0, truthNorm = 0.0;
  std::vector<std::uint64_t> binHash;
  std::vector<double> emitUs;
  int root = -1;
};

// One replay as `ictm stream --out DIR --codec delta` does it: read →
// MakeBinEvent → push, estimates and priors written back with the delta
// codec from the emit callback.  Setup (topology, routing, augmented
// system, estimator) is timed separately from processing.
JobResult RunJob(const StreamConfig& c, std::size_t threads,
                 const std::string& outDir, SpanLog& spans) {
  JobResult r;
  SpanScope job(spans, "job", "bench", -1);
  r.root = job.id();
  const double t0 = NowUs();
  Setup s = BuildSetup(c.topology, spans, job.id());
  const std::size_t n = s.nodes;
  const std::size_t cells = n * n;

  std::optional<stream::TraceWriter> estW, priorW;
  std::mutex truthMutex;  // guards inflight
  std::map<std::size_t, std::vector<double>> inflight;
  std::mutex emitMutex;  // guards the accumulators below
  std::optional<stream::StreamingEstimator> est;
  {
    SpanScope span(spans, "stream.prior_model", "stream.prior_model",
                   job.id());
    est.emplace(
        s.system, Options(c, threads),
        [&](std::size_t seq, const double* e, const double* p) {
          const double start = NowUs();
          SpanScope emit(spans, "stream.emit", "stream.online", job.id(),
                         static_cast<long long>(seq));
          std::vector<double> truth;
          {
            std::lock_guard<std::mutex> lock(truthMutex);
            auto it = inflight.find(seq);
            truth = std::move(it->second);
            inflight.erase(it);
          }
          double se = 0.0, sp = 0.0, st = 0.0;
          bool bad = false;
          for (std::size_t k = 0; k < cells; ++k) {
            if (!std::isfinite(e[k]) || e[k] < 0.0) bad = true;
            se += (e[k] - truth[k]) * (e[k] - truth[k]);
            sp += (p[k] - truth[k]) * (p[k] - truth[k]);
            st += truth[k] * truth[k];
          }
          {
            std::lock_guard<std::mutex> lock(emitMutex);
            r.errEst += std::sqrt(se);
            r.errPrior += std::sqrt(sp);
            r.truthNorm += std::sqrt(st);
            if (bad) ++r.failed;
            r.binHash[seq] = BinHash(e, p, cells);
          }
          {
            SpanScope write(spans, "stream.write", "stream.format", emit.id(),
                            static_cast<long long>(seq));
            estW->append(e);
            priorW->append(p);
          }
          r.emitUs[seq] = NowUs() - start;
        });
  }
  const double t1 = NowUs();
  r.setupS = (t1 - t0) / 1e6;

  std::filesystem::create_directories(outDir);
  stream::TraceReader reader(c.trace, stream::TraceReaderOptions{true});
  r.bins = reader.info().bins;
  r.binHash.assign(r.bins, 0);
  r.emitUs.assign(r.bins, 0.0);
  stream::TraceWriterOptions wo;
  wo.codec = stream::ChunkCodec::kDelta;
  wo.compressThreads = 1;
  estW.emplace(outDir + "/estimates.ictmb", n, reader.info().binSeconds, wo);
  priorW.emplace(outDir + "/priors.ictmb", n, reader.info().binSeconds, wo);
  std::vector<double> bin(cells);
  for (std::size_t t = 0; t < r.bins; ++t) {
    {
      SpanScope span(spans, "stream.read", "stream.format", job.id(),
                     static_cast<long long>(t));
      if (!reader.next(bin.data())) throw std::runtime_error("short trace");
    }
    {
      std::lock_guard<std::mutex> lock(truthMutex);
      inflight.emplace(t, bin);
    }
    stream::BinEvent ev;
    {
      SpanScope span(spans, "stream.event", "stream.event", job.id(),
                     static_cast<long long>(t));
      ev = stream::MakeBinEvent(s.routing, n, bin.data());
    }
    SpanScope span(spans, "stream.push", "stream.online", job.id(),
                   static_cast<long long>(t));
    est->push(std::move(ev));
  }
  {
    SpanScope span(spans, "stream.finish", "stream.online", job.id());
    est->finish();
  }
  {
    SpanScope span(spans, "stream.close", "stream.format", job.id());
    estW->close();
    priorW->close();
  }
  r.procS = (NowUs() - t1) / 1e6;
  est.reset();
  spans.close(job.id());  // the read-back below is the benchmark's check

  // The written traces must read back to exactly the emitted bins.
  stream::TraceReader backE(outDir + "/estimates.ictmb");
  stream::TraceReader backP(outDir + "/priors.ictmb");
  std::vector<double> e(cells), p(cells);
  std::size_t readBack = 0;
  while (backE.next(e.data()) && backP.next(p.data())) {
    if (readBack >= r.bins || BinHash(e.data(), p.data(), cells) !=
                                  r.binHash[readBack]) {
      ++r.failed;
    }
    ++readBack;
  }
  if (readBack != r.bins) r.failed += r.bins;
  return r;
}

struct PacedResult {
  std::vector<double> latencyMs;
  std::vector<double> lateMs;
  std::size_t failed = 0;
};

// Open loop: bin k is due at t0 + k/rate whatever the estimator does;
// latency runs from the due time to the bin's emission.  A phase longer
// than the trace replays it again from its start: bins past the trace's
// end are checked to be finite and >= 0, the others against the replay.
PacedResult RunPaced(const StreamConfig& c, const Setup& s, double rate,
                     std::size_t bins,
                     const std::vector<std::uint64_t>& refHash) {
  const std::size_t n = s.nodes;
  stream::TraceReader reader(c.trace);
  std::vector<stream::BinEvent> events;
  std::vector<double> bin(n * n);
  for (std::size_t t = 0; t < bins && reader.next(bin.data()); ++t) {
    events.push_back(stream::MakeBinEvent(s.routing, n, bin.data()));
  }
  const std::size_t traceBins = events.size();
  for (std::size_t k = traceBins; k < bins; ++k) {
    events.push_back(events[k % traceBins]);
  }
  PacedResult r;
  std::vector<double> emitUs(bins, 0.0);
  std::vector<std::uint64_t> hash(bins, 0);
  std::vector<char> valid(bins, 0);
  {
    stream::StreamingEstimator est(
        s.system, Options(c, c.threads),
        [&](std::size_t seq, const double* e, const double* p) {
          emitUs[seq] = NowUs();
          hash[seq] = BinHash(e, p, n * n);
          valid[seq] = std::all_of(e, e + n * n, [](double x) {
            return std::isfinite(x) && x >= 0.0;
          });
        });
    const double t0 = NowUs() + 1000.0;
    std::vector<double> dueUs(bins);
    for (std::size_t k = 0; k < bins; ++k) {
      dueUs[k] = t0 + 1e6 * static_cast<double>(k) / rate;
      const double wait = dueUs[k] - NowUs();
      if (wait > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long long>(wait)));
      }
      r.lateMs.push_back((NowUs() - dueUs[k]) / 1e3);
      est.push(std::move(events[k]));
    }
    est.finish();
    for (std::size_t k = 0; k < bins; ++k) {
      r.latencyMs.push_back((emitUs[k] - dueUs[k]) / 1e3);
    }
  }
  for (std::size_t k = 0; k < bins; ++k) {
    const bool ok = k < traceBins
                        ? k < refHash.size() && hash[k] == refHash[k]
                        : valid[k] != 0;
    if (!ok) ++r.failed;
  }
  return r;
}

// A backlog grows when the median latency of the last third of a phase
// exceeds that of the first third by more than a tenth of the latency
// limit.  An offered rate above capacity adds (rate/capacity - 1) x the
// phase's length of backlog; a host stall adds latency to a few bins,
// which moves neither median.
bool BacklogGrows(const std::vector<double>& latencyMs, double limitMs) {
  const std::size_t third = latencyMs.size() / 3;
  if (third == 0) return false;
  const std::vector<double> head(latencyMs.begin(),
                                 latencyMs.begin() + static_cast<long>(third));
  const std::vector<double> tail(latencyMs.end() - static_cast<long>(third),
                                 latencyMs.end());
  return Median(tail) > Median(head) + limitMs / 10.0;
}

// Latency of one phase at a fixed rate, from due time to delivery.
struct RatePhase {
  std::vector<double> latencyMs, lateMs;
  bool backlog = false;
};

// Runs the low, mid and high rates (phase(0..2)), all well below
// capacity, as `rounds` interleaved phases (low, mid, high, low, ...),
// so a slow stretch of the host hits every rate alike, and reports each
// rate's p50 and p99.
void ReportRates(JsonOut& out, std::size_t rounds,
                 const std::function<RatePhase(std::size_t)>& phase) {
  const char* names[] = {"low", "mid", "high"};
  std::vector<std::vector<double>> latencyMs(3);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < 3; ++i) {
      const RatePhase p = phase(i);
      latencyMs[i].insert(latencyMs[i].end(), p.latencyMs.begin(),
                          p.latencyMs.end());
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    out.num(std::string("bin_latency_p50_ms.") + names[i],
            LatencyP50(latencyMs[i]));
    out.num(std::string("bin_latency_p99_ms.") + names[i],
            LatencyP99(latencyMs[i]));
  }
}

// The fixed rate ladder of sustained_bins_per_s: rung k offers
// first x step^k bins/s, from far below a workload's capacity to far
// past it.  Climbs start at the rung nearest `start` x the saturated
// rate measured earlier in the run, which sits near capacity, so on a
// slow host and a fast one alike a climb runs only a few rungs.
struct Ladder {
  double first = 0.0;
  double step = 1.0;
  std::size_t rungs = 0;
  std::size_t climbs = 0;
  double start = 0.0;
  double rate(std::size_t k) const {
    return first * std::pow(step, static_cast<double>(k));
  }
};

Ladder LadderFrom(const std::vector<double>& v) {
  if (v.size() != 5 || v[0] <= 0.0 || v[1] <= 1.0 || v[2] < 1 || v[3] < 1 ||
      v[4] <= 0.0) {
    throw std::runtime_error("--ladder wants FIRST,STEP,RUNGS,CLIMBS,START");
  }
  return {v[0], v[1], static_cast<std::size_t>(v[2]),
          static_cast<std::size_t>(v[3]), v[4]};
}

// sustained_bins_per_s.  A rung passes when its phase meets the latency
// limit: p99 within it and no growing backlog.  A climb runs its first
// rung; if that passes, it climbs until a rung fails, and otherwise it
// descends until one passes.  Its result is the highest rung it saw
// pass (0 if even rung 0 fails).  The median over the climbs is
// reported; `scale` turns a rung's rate into the offered load it stands
// for (the sessions of serve-paced).
double Sustained(const Ladder& ladder, double saturated, double scale,
                 double limitMs,
                 const std::function<RatePhase(double rate)>& phase) {
  std::size_t start = 0;
  while (start + 1 < ladder.rungs &&
         ladder.rate(start + 1) <= ladder.start * saturated) {
    ++start;
  }
  auto passes = [&](std::size_t k) {
    const RatePhase p = phase(ladder.rate(k));
    const double p99 = Quantile(p.latencyMs, 0.99);
    std::fprintf(stderr, "perfbench: ladder rung %.4g: p99 %.3f ms%s\n",
                 ladder.rate(k) * scale, p99,
                 p.backlog ? ", backlog grows" : "");
    return p99 <= limitMs && !p.backlog;
  };
  std::vector<double> results;
  for (std::size_t c = 0; c < ladder.climbs; ++c) {
    std::size_t k = start;
    bool ok = passes(k);
    if (ok) {
      while (k + 1 < ladder.rungs && passes(k + 1)) ++k;
    } else {
      while (!ok && k > 0) ok = passes(--k);
    }
    results.push_back(ok ? ladder.rate(k) * scale : 0.0);
  }
  return Median(results);
}

// Median single-thread TmBinSolver::Solve time per backend on a fixed
// sample of bins with the priors the streaming run derived for them.
struct SolveSample {
  double firstSolveMs = 0.0;
  std::map<std::string, double> medianMs;
};

SolveSample SampleSolves(const std::string& spec, const std::string& truthPath,
                         const std::string& priorPath, std::size_t samples,
                         SpanLog& spans, int parent) {
  SpanLog none(false);
  Setup s = BuildSetup(spec, none, -1);
  const std::size_t n = s.nodes;
  stream::TraceReader truth(truthPath), priors(priorPath);
  const std::size_t bins = std::min(truth.info().bins, priors.info().bins);
  samples = std::min(samples, bins);
  std::vector<std::vector<double>> tb, pb;
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t t = k * bins / samples;
    tb.emplace_back(n * n);
    pb.emplace_back(n * n);
    truth.seek(t);
    priors.seek(t);
    truth.next(tb.back().data());
    priors.next(pb.back().data());
  }
  SolveSample out;
  std::vector<double> x(n * n);
  for (const char* kind : {"auto", "dense", "cg"}) {
    core::EstimationOptions opt;
    core::ParseSolverKind(kind, &opt.solver);
    core::TmBinSolver solver(*s.system, opt);
    std::vector<double> ms;
    for (std::size_t k = 0; k < samples; ++k) {
      const stream::BinEvent ev =
          stream::MakeBinEvent(s.routing, n, tb[k].data());
      SpanScope span(spans, "core.solve", "core", parent,
                     static_cast<long long>(k));
      const double t0 = NowUs();
      solver.Solve(ev.linkLoads.data(), pb[k].data(), ev.ingress.data(),
                   ev.egress.data(), x.data());
      ms.push_back((NowUs() - t0) / 1e3);
    }
    // The first auto solve on this fresh system pays the lazy
    // per-system preconditioner or factor.
    if (std::string(kind) == "auto") out.firstSolveMs = ms.front();
    if (ms.size() > 1) ms.erase(ms.begin());
    out.medianMs[kind] = Median(ms);
  }
  return out;
}

// Times push() calls that close a refit window, with a queue that never
// fills, and CheckpointStore::save on the captured checkpoint.
struct RefitProbe {
  std::vector<double> refitMs;
  double checkpointSaveMs = 0.0;
};

RefitProbe ProbeRefit(const StreamConfig& c, std::size_t maxBins,
                      SpanLog& spans, int parent) {
  SpanLog none(false);
  Setup s = BuildSetup(c.topology, none, -1);
  const std::size_t n = s.nodes;
  stream::TraceReader reader(c.trace);
  const std::size_t bins = std::min(maxBins, reader.info().bins);
  std::vector<stream::BinEvent> events;
  std::vector<double> bin(n * n);
  for (std::size_t t = 0; t < bins && reader.next(bin.data()); ++t) {
    events.push_back(stream::MakeBinEvent(s.routing, n, bin.data()));
  }
  stream::StreamingOptions o = Options(c, c.threads);
  o.queueCapacity = bins + 1;
  RefitProbe r;
  stream::StreamingEstimator est(s.system, o,
                                 [](std::size_t, const double*,
                                    const double*) {});
  for (std::size_t k = 0; k < bins; ++k) {
    const bool closes = c.window > 0 && (k + 1) % c.window == 0;
    SpanScope span(spans, closes ? "stream.refit_push" : "stream.push",
                   "stream.online", parent, static_cast<long long>(k));
    const double t0 = NowUs();
    est.push(std::move(events[k]));
    if (closes) r.refitMs.push_back((NowUs() - t0) / 1e3);
  }
  server::SessionCheckpoint cp;
  cp.sessionKey = "probe";
  cp.topologySpec = c.topology;
  cp.window = c.window;
  cp.state = est.checkpoint();
  server::CheckpointStore store(c.work + "/checkpoints");
  std::vector<double> saveMs;
  for (int i = 0; i < 5; ++i) {
    SpanScope span(spans, "server.checkpoint_save", "server", parent);
    const double t0 = NowUs();
    store.save(cp);
    saveMs.push_back((NowUs() - t0) / 1e3);
  }
  r.checkpointSaveMs = Median(saveMs);
  est.finish();
  return r;
}

void AddLayerShares(JsonOut& out, const SpanLog& spans, int root) {
  const double wallUs = spans.durationUs(root);
  double attributed = 0.0;
  for (const auto& [layer, us] : spans.selfTimeUs(root)) {
    out.num("share." + layer, us / wallUs);
    attributed += us;
  }
  out.num("unattributed_share", 1.0 - attributed / wallUs);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---- the estimation server as a separate process ----------------------------------

// `ictm serve` launched as a child process on a unix socket, with
// checkpointing on.  stop() sends SIGTERM and reaps it with wait4, which
// yields the server's peak RSS.
class ServerProcess {
 public:
  ServerProcess(const std::string& ictm, const std::string& dir) {
    std::filesystem::create_directories(dir + "/checkpoints");
    socket_ = dir + "/serve.sock";
    std::filesystem::remove(socket_);
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    const std::string listen = "unix:" + socket_;
    const std::string ckpt = dir + "/checkpoints";
    std::vector<std::string> args = {ictm, "serve", "--listen", listen,
                                     "--checkpoint-dir", ckpt};
    std::vector<char*> argv;
    for (auto& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    launchUs_ = NowUs();
    const int rc = posix_spawn(&pid_, ictm.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot launch " + ictm);
    }
    // The server prints its "listening on" line once the socket is bound.
    std::string seen;
    char buf[256];
    while (seen.find('\n') == std::string::npos) {
      const ssize_t got = read(out_, buf, sizeof buf);
      if (got <= 0) throw std::runtime_error("ictm serve exited early");
      seen.append(buf, static_cast<std::size_t>(got));
    }
    if (seen.find("listening") == std::string::npos) {
      throw std::runtime_error("ictm serve: unexpected output " + seen);
    }
    server::Endpoint::Parse(listen, &endpoint_);
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  const server::Endpoint& endpoint() const { return endpoint_; }
  double launchUs() const { return launchUs_; }

  // Stops the server; returns its peak RSS in MB.
  double stop() {
    if (pid_ <= 0) return 0.0;
    kill(pid_, SIGTERM);
    int status = 0;
    struct rusage usage = {};
    wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    close(out_);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  double launchUs_ = 0.0;
  std::string socket_;
  server::Endpoint endpoint_;
};

// Bins of the in-memory trace, replayed from `offset` and wrapping.
struct Traffic {
  traffic::TrafficMatrixSeries series;
  const double* bin(std::size_t offset, std::uint64_t seq) const {
    return series.binData((offset + seq) % series.binCount());
  }
};

struct SessionPlan {
  std::string key;
  std::string topology;
  std::size_t window = 0;
  std::size_t offset = 0;
  std::size_t bins = 0;
  double rate = 0.0;  // bins/s; 0 sends as fast as the server takes them
};

struct SessionOutcome {
  server::ClientResult result;
  double runStartUs = 0.0, firstSourceUs = 0.0, endUs = 0.0;
  std::vector<double> dueUs, sentUs, recvUs;
};

// One client session through server::Client.  `onWelcome` runs at the
// first BinSource call, which the client makes right after WELCOME.
SessionOutcome RunSession(const server::Endpoint& endpoint,
                          const SessionPlan& plan, const Traffic& traffic,
                          SpanLog& spans,
                          const std::function<void()>& onWelcome) {
  SessionOutcome o;
  o.dueUs.assign(plan.bins, 0.0);
  o.sentUs.assign(plan.bins, 0.0);
  o.recvUs.assign(plan.bins, 0.0);
  server::ClientConfig config;
  config.endpoint = endpoint;
  config.hello.topologySpec = plan.topology;
  config.hello.window = plan.window;
  config.hello.threads = 1;
  config.hello.sessionKey = plan.key;
  SpanScope root(spans, "session", "bench", -1);
  int sendSpan = -1;
  o.runStartUs = NowUs();
  o.result = server::Client::Run(
      config, plan.bins,
      [&](std::uint64_t seq) {
        const double now = NowUs();
        spans.close(sendSpan);
        if (seq == 0) {
          o.firstSourceUs = now;
          spans.add("server.handshake", "server", root.id(), -1, o.runStartUs,
                    now);
          if (onWelcome) onWelcome();
        }
        const long long bin = static_cast<long long>(seq);
        SpanScope source(spans, "load.source", "load", root.id(), bin);
        double due = now;
        if (plan.rate > 0.0) {
          due = o.firstSourceUs + 1e6 * static_cast<double>(seq) / plan.rate;
          const double wait = due - NowUs();
          if (wait > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(static_cast<long long>(wait)));
          }
        }
        o.dueUs[seq] = due;
        o.sentUs[seq] = NowUs();
        sendSpan = spans.open("server.send", "server", root.id(), bin);
        return traffic.bin(plan.offset, seq);
      },
      [&](std::uint64_t seq, const std::vector<std::uint8_t>&) {
        if (seq < o.recvUs.size()) o.recvUs[seq] = NowUs();
      });
  o.endUs = NowUs();
  if (sendSpan >= 0) {
    spans.close(sendSpan);
    spans.add("server.drain", "server", root.id(), -1, spans.endUs(sendSpan),
              o.endUs);
  }
  // Each bin's round trip through the server, as a span of its own
  // (no parent: round trips overlap the session's send spans).
  for (std::size_t k = 0; k < o.recvUs.size(); ++k) {
    if (o.recvUs[k] > 0.0) {
      spans.add("server.estimate", "server", -1, static_cast<long long>(k),
                o.sentUs[k], o.recvUs[k]);
    }
  }
  return o;
}

// Expected ESTIMATE payload hash per seq for one session config,
// computed with a library StreamingEstimator (untimed).
struct Reference {
  std::vector<std::uint64_t> hash;
  double errEst = 0.0, errPrior = 0.0, truthNorm = 0.0;
};

Reference ComputeReference(const std::string& topology, std::size_t window,
                           const Traffic& traffic, std::size_t offset,
                           std::size_t bins) {
  SpanLog none(false);
  Setup s = BuildSetup(topology, none, -1);
  const std::size_t n = s.nodes;
  Reference ref;
  ref.hash.assign(bins, 0);
  stream::StreamingOptions o;
  o.threads = 1;
  o.window = window;
  stream::StreamingEstimator est(
      s.system, o, [&](std::size_t seq, const double* e, const double* p) {
        const auto payload = server::EncodeEstimatePayload(seq, e, p, n);
        ref.hash[seq] = Fnv(payload.data(), payload.size());
        const double* x = traffic.bin(offset, seq);
        double se = 0.0, sp = 0.0, st = 0.0;
        for (std::size_t k = 0; k < n * n; ++k) {
          se += (e[k] - x[k]) * (e[k] - x[k]);
          sp += (p[k] - x[k]) * (p[k] - x[k]);
          st += x[k] * x[k];
        }
        ref.errEst += std::sqrt(se);
        ref.errPrior += std::sqrt(sp);
        ref.truthNorm += std::sqrt(st);
      });
  for (std::size_t k = 0; k < bins; ++k) {
    est.push(stream::MakeBinEvent(s.routing, n, traffic.bin(offset, k)));
  }
  est.finish();
  return ref;
}

// Bins of a session that were not delivered, or delivered with bytes
// other than the library reference's.  A session that ends in an error
// fails every bin.
std::size_t FailedBins(const SessionOutcome& o, const Reference& ref,
                       std::size_t bins) {
  if (!o.result.finished || o.result.estimatePayloads.size() != bins) {
    return bins;
  }
  std::size_t failed = 0;
  for (std::size_t k = 0; k < bins; ++k) {
    const auto& p = o.result.estimatePayloads[k];
    if (k >= ref.hash.size() || Fnv(p.data(), p.size()) != ref.hash[k]) {
      ++failed;
    }
  }
  return failed;
}

// Runs sessions concurrently; session i > 0 opens after session 0's
// WELCOME, so only the first handshake can miss the topology cache.
std::vector<SessionOutcome> RunSessions(const server::Endpoint& endpoint,
                                        const std::vector<SessionPlan>& plans,
                                        const Traffic& traffic,
                                        SpanLog& spans) {
  std::vector<SessionOutcome> out(plans.size());
  std::vector<std::thread> others;
  std::mutex m;  // guards others
  auto startOthers = [&] {
    std::lock_guard<std::mutex> lock(m);
    for (std::size_t i = 1; i < plans.size(); ++i) {
      others.emplace_back([&, i] {
        out[i] = RunSession(endpoint, plans[i], traffic, spans, nullptr);
      });
    }
  };
  out[0] = RunSession(endpoint, plans[0], traffic, spans, startOthers);
  std::lock_guard<std::mutex> lock(m);
  for (auto& t : others) t.join();
  if (others.size() + 1 != plans.size()) {
    // Session 0 never reached WELCOME; the rest never started.
    for (std::size_t i = 1; i < plans.size(); ++i) out[i] = SessionOutcome{};
  }
  return out;
}

struct Handshakes {
  double setupS = 0.0;
  double missMs = 0.0;
  double hitMs = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

// Two short sessions right after launch: set-up time runs from the
// launch to the first WELCOME.
Handshakes MeasureHandshakes(ServerProcess& srv, const SessionPlan& plan,
                             const Traffic& traffic, const Reference& ref,
                             SpanLog& spans, int round) {
  std::vector<SessionPlan> plans = {plan, plan};
  plans[0].key = "hs" + std::to_string(round) + "a";
  plans[1].key = "hs" + std::to_string(round) + "b";
  const auto o = RunSessions(srv.endpoint(), plans, traffic, spans);
  Handshakes h;
  h.setupS = (o[0].firstSourceUs - srv.launchUs()) / 1e6;
  h.missMs = (o[0].firstSourceUs - o[0].runStartUs) / 1e3;
  h.hitMs = (o[1].firstSourceUs - o[1].runStartUs) / 1e3;
  for (const auto& s : o) {
    h.attempted += plan.bins;
    h.failed += FailedBins(s, ref, plan.bins);
  }
  return h;
}

std::map<std::string, double> ServerStats(const server::Endpoint& endpoint) {
  server::StatsReply reply;
  std::string error;
  std::map<std::string, double> out;
  if (!server::Client::FetchStats(endpoint, &reply, &error)) {
    throw std::runtime_error("stats: " + error);
  }
  for (const auto& [name, value] : reply.entries) {
    out[name] = static_cast<double>(value);
  }
  return out;
}

void AddServerMetrics(JsonOut& out, const std::vector<Handshakes>& hs,
                      const std::map<std::string, double>& stats) {
  std::vector<double> miss, hit;
  for (const auto& h : hs) {
    miss.push_back(h.missMs);
    hit.push_back(h.hitMs);
  }
  auto get = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second;
  };
  out.num("server.handshake_miss_ms", Median(miss));
  out.num("server.handshake_hit_ms", Median(hit));
  const double hits = get("server.topo_cache.hits");
  const double misses = get("server.topo_cache.misses");
  out.num("server.topo_cache.hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const double binsIn = get("server.bins_received");
  out.num("server.bytes_per_bin",
          binsIn > 0 ? get("server.bytes_sent") / binsIn : 0.0);
  out.num("server.backpressure_stalls", get("server.backpressure_stalls"));
}

// ---- the layer probes of a traced run ------------------------------------------------

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

// Per-layer metrics of the library's streaming path on a workload's
// traffic: one untraced and one traced replay with `threads` workers
// (the ratio of their processing walls is the tracing overhead; the
// traced one gives the format, codec and online layers), then solve,
// refit and checkpoint probes.  Returns the traced job.
JobResult TraceStreamLayers(const StreamConfig& c, std::size_t threads,
                            std::size_t solveSamples, std::size_t reps,
                            SpanLog& spans, JsonOut& out, Tally& tally) {
  SpanLog none(false);
  std::vector<double> plainS, tracedS;
  JobResult r;
  for (std::size_t i = 0; i < reps; ++i) {
    const JobResult plain = RunJob(c, threads, c.work + "/out-plain", none);
    const bool last = i + 1 == reps;
    SpanLog scratch(true);
    if (last) obs::Registry::Instance().reset();
    r = RunJob(c, threads, c.work + "/out-traced", last ? spans : scratch);
    plainS.push_back(plain.procS);
    tracedS.push_back(r.procS);
    tally.attempted += plain.bins + r.bins;
    tally.failed += plain.failed + r.failed;
    for (std::size_t k = 0; k < r.bins; ++k) {
      if (r.binHash[k] != plain.binHash[k]) ++tally.failed;  // invisible
    }
  }
  const obs::MetricsSnapshot snap = obs::Registry::Instance().snapshot();
  const double bins = static_cast<double>(r.bins);
  out.num("obs.trace_overhead", Median(tracedS) / Median(plainS));

  const std::vector<double> push = spans.durationsUs("stream.push", r.root);
  out.num("stream.read_us_per_bin",
          Sum(spans.durationsUs("stream.read", r.root)) / bins);
  out.num("stream.event_us_per_bin",
          Sum(spans.durationsUs("stream.event", r.root)) / bins);
  out.num("stream.write_us_per_bin",
          Sum(spans.durationsUs("stream.write", r.root)) / bins);
  out.num("stream.push_us.p50", Quantile(push, 0.5));
  out.num("stream.push_us.p99", Quantile(push, 0.99));
  out.num("stream.emit_us", Median(r.emitUs));
  auto counter = [&](const char* name) {
    return static_cast<double>(CounterOf(snap, name));
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  // Codec MB/s over uncompressed bytes, from the registry's counters.
  out.num("stream.codec.decompress_mb_s",
          ratio(counter("trace_codec.delta.decompress_bytes_out") * 1e3,
                counter("trace_codec.delta.decompress_ns")));
  out.num("stream.codec.compress_mb_s",
          ratio(counter("trace_codec.delta.compress_bytes_in") * 1e3,
                counter("trace_codec.delta.compress_ns")));
  out.num("stream.codec.size_ratio",
          ratio(counter("trace_codec.delta.compress_bytes_out"),
                counter("trace_codec.delta.compress_bytes_in")));
  out.num("stream.queue_full_share",
          ratio(counter("stream.queue_full_stalls"),
                counter("stream.bins_pushed")));
  out.num("stream.worker_busy_share",
          ratio(counter("stream.worker_busy_ns"),
                static_cast<double>(threads) * r.procS * 1e9));
  out.num("stream.queue_wait_ms.p50",
          HistogramQuantile(snap, "stream.queue_wait_ns", 0.5) / 1e6);
  out.num("core.pcg_iters_per_bin",
          ratio(counter("pcg.iterations_total"), counter("pcg.solves")));
  out.num("core.prior_rel_l2", r.errPrior / r.truthNorm);

  const int probes = spans.open("probes", "bench", -1);
  const SolveSample ss =
      SampleSolves(c.topology, c.trace, c.work + "/out-traced/priors.ictmb",
                   solveSamples, spans, probes);
  const double autoMs = ss.medianMs.at("auto");
  out.num("core.first_solve_ms", ss.firstSolveMs);
  out.num("core.solve_ms", autoMs);
  out.num("core.auto_over_best",
          autoMs / std::min(ss.medianMs.at("dense"), ss.medianMs.at("cg")));
  const RefitProbe rp =
      ProbeRefit(c, std::max<std::size_t>(4 * c.window, 1), spans, probes);
  out.num("stream.refit_push_ms", Median(rp.refitMs));
  out.num("server.checkpoint_save_ms", rp.checkpointSaveMs);
  spans.close(probes);

  // Shares of the replay's processing wall (not per_layer metrics;
  // printed for the record): solve work over all workers, and the
  // serial refits on the producer.
  std::fprintf(stderr,
               "perfbench: solve_share %.3f (median solve x bins / workers x "
               "wall), refit_share %.3f, dense %.3f ms, cg %.3f ms\n",
               autoMs * 1e3 * bins / (static_cast<double>(threads) *
                                      r.procS * 1e6),
               c.window > 0 ? Median(rp.refitMs) * 1e3 * bins /
                                  static_cast<double>(c.window) /
                                  (r.procS * 1e6)
                            : 0.0,
               ss.medianMs.at("dense"), ss.medianMs.at("cg"));
  return r;
}

// ---- workload entry points --------------------------------------------------------

StreamConfig ConfigFrom(const Args& a) {
  StreamConfig c;
  c.trace = a.str("trace-in");
  c.topology = a.str("topology");
  c.window = a.size("window");
  c.threads = a.size("threads");
  c.work = a.str("work");
  return c;
}

void Finish(JsonOut& out, const Tally& tally) {
  out.num("attempted", static_cast<double>(tally.attempted));
  out.num("failed", static_cast<double>(tally.failed));
  std::printf("%s\n", out.str().c_str());
}

int RunStream(const Args& a) {
  const StreamConfig c = ConfigFrom(a);
  const double seconds = a.num("seconds");
  const bool traced = a.size("traced") != 0;
  JsonOut out;
  Tally tally;
  const double start = NowUs();
  auto elapsedS = [&] { return (NowUs() - start) / 1e6; };

  // Repeated setups: topology, routing, augmented system and estimator.
  std::vector<double> setupS, routingMs, systemMs, priorModelMs;
  SpanLog none(false);
  for (std::size_t i = 0; i < a.size("setups"); ++i) {
    const double t0 = NowUs();
    Setup s = BuildSetup(c.topology, none, -1);
    const double t1 = NowUs();
    stream::StreamingEstimator est(s.system, Options(c, c.threads),
                                   [](std::size_t, const double*,
                                      const double*) {});
    const double t2 = NowUs();
    setupS.push_back((t2 - t0) / 1e6);
    routingMs.push_back(s.routingMs);
    systemMs.push_back(s.systemMs);
    priorModelMs.push_back((t2 - t1) / 1e3);
    est.finish();
  }

  const std::vector<double> rates = a.list("rates");
  const std::vector<double> paceBins = a.list("paced-bins");
  if (!traced) {
    // Alternate N-worker and 1-worker replays of the whole trace: at
    // least --min-pairs pairs, and more until --job-share of the run
    // has passed.
    std::vector<double> rateN, rate1;
    JobResult ref;
    const std::string refDir = c.work + "/out-" + std::to_string(c.threads);
    const std::size_t minPairs = std::max<std::size_t>(1, a.size("min-pairs"));
    while (rate1.size() < minPairs ||
           elapsedS() < seconds * a.num("job-share")) {
      for (const std::size_t threads : {c.threads, std::size_t{1}}) {
        const std::string dir = c.work + "/out-" + std::to_string(threads);
        JobResult r = RunJob(c, threads, dir, none);
        tally.attempted += r.bins;
        tally.failed += r.failed;
        setupS.push_back(r.setupS);
        (threads == 1 ? rate1 : rateN)
            .push_back(static_cast<double>(r.bins) / r.procS);
        if (ref.bins == 0) {
          ref = std::move(r);
          continue;
        }
        // Determinism contract: every replay, at any worker count,
        // emits the same bins and writes the same bytes.
        for (std::size_t k = 0; k < r.bins; ++k) {
          if (k >= ref.bins || r.binHash[k] != ref.binHash[k]) ++tally.failed;
        }
        if (!SameFile(dir + "/estimates.ictmb", refDir + "/estimates.ictmb") ||
            !SameFile(dir + "/priors.ictmb", refDir + "/priors.ictmb")) {
          tally.failed += r.bins;
        }
      }
    }
    for (const auto* v : {&rateN, &rate1}) {
      std::fprintf(stderr, "perfbench: %s bins/s per replay:",
                   v == &rateN ? "N-worker" : "1-worker");
      for (double x : *v) std::fprintf(stderr, " %.4g", x);
      std::fprintf(stderr, "\n");
    }
    out.num("bins_per_s", Median(rateN));
    out.num("bins_per_s_1t", Median(rate1));
    out.num("est_rel_l2", ref.errEst / ref.truthNorm);

    // Open-loop paced replays: the low, mid and high rates, then the
    // ladder.
    const double limitMs = a.num("latency-limit-ms");
    const Setup paceSetup = BuildSetup(c.topology, none, -1);
    auto paced = [&](double rate, std::size_t bins) {
      const PacedResult p = RunPaced(c, paceSetup, rate, bins, ref.binHash);
      tally.attempted += p.latencyMs.size();
      tally.failed += p.failed;
      return RatePhase{p.latencyMs, p.lateMs,
                       BacklogGrows(p.latencyMs, limitMs)};
    };
    // One untimed bin first, so no phase pays the system's lazy
    // preconditioner or factor.
    paced(rates[0], 1);
    ReportRates(out, a.size("rounds"), [&](std::size_t i) {
      return paced(rates[i], static_cast<std::size_t>(paceBins[i]));
    });
    const double rungS = a.num("ladder-seconds");
    out.num("sustained_bins_per_s",
            Sustained(LadderFrom(a.list("ladder")), Median(rateN), 1.0,
                      limitMs,
                      [&](double rate) {
                        return paced(rate, static_cast<std::size_t>(
                                               std::ceil(rate * rungS)));
                      }));
    out.num("peak_rss_mb", PeakRssMb());
  } else {
    SpanLog spans(true);
    const JobResult ref = TraceStreamLayers(c, c.threads,
                                            a.size("solve-samples"),
                                            a.size("trace-reps"), spans, out,
                                            tally);
    AddLayerShares(out, spans, ref.root);
    // The generator's lateness on the mid rate.
    const PacedResult p =
        RunPaced(c, BuildSetup(c.topology, none, -1), rates[1],
                 static_cast<std::size_t>(paceBins[1]), ref.binHash);
    tally.attempted += p.latencyMs.size();
    tally.failed += p.failed;
    out.num("load.late_p99_ms", Quantile(p.lateMs, 0.99));
    out.num("bin_latency_p99_ms.mid", LatencyP99(p.latencyMs));
    // What the estimation server pays for this workload's topology: a
    // cache-missing and a cache-hitting handshake, one bin each.
    ServerProcess srv(a.str("ictm"), c.work + "/serve");
    Traffic traffic{stream::TraceReader(c.trace).readAll()};
    SessionPlan plan{"", c.topology, c.window, 0, 1, 0.0};
    const Reference sref = ComputeReference(c.topology, c.window, traffic, 0, 1);
    const Handshakes h = MeasureHandshakes(srv, plan, traffic, sref, none, 0);
    tally.attempted += h.attempted;
    tally.failed += h.failed;
    AddServerMetrics(out, {h}, ServerStats(srv.endpoint()));
    srv.stop();
    spans.writeChrome(a.str("trace-out"));
  }
  out.num("setup_s", Median(setupS));
  out.num("topology.routing_ms", Median(routingMs));
  out.num("core.system_ms", Median(systemMs));
  out.num("stream.prior_model_ms", Median(priorModelMs));
  Finish(out, tally);
  return 0;
}

int RunServe(const Args& a) {
  StreamConfig c = ConfigFrom(a);
  const bool traced = a.size("traced") != 0;
  const std::size_t sessions = a.size("sessions");
  const std::vector<double> rates = a.list("rates");
  const double phaseS = a.num("phase-seconds");
  const std::size_t satBins = a.size("saturation-bins");
  const std::size_t setupBins = a.size("setup-bins");
  JsonOut out;
  Tally tally;
  SpanLog none(false);

  Traffic traffic{stream::TraceReader(c.trace).readAll()};
  const std::size_t T = traffic.series.binCount();
  // Bins per session of a low/mid/high phase and of a ladder rung.
  auto phaseBins = [&](double rate) {
    return static_cast<std::size_t>(rate * phaseS / a.num("rounds"));
  };
  const Ladder ladder = LadderFrom(a.list("ladder"));
  auto rungBins = [&](double rate) {
    return std::min(satBins, static_cast<std::size_t>(std::ceil(
                                 rate * a.num("ladder-seconds"))));
  };
  // The longest session any phase runs; the references cover it.
  std::size_t maxBins = std::max(satBins, setupBins);
  for (double r : rates) maxBins = std::max(maxBins, phaseBins(r));
  std::vector<Reference> refs;
  for (std::size_t i = 0; i < sessions; ++i) {
    refs.push_back(ComputeReference(c.topology, c.window, traffic,
                                    i * T / sessions, maxBins));
  }
  auto plansFor = [&](const std::string& tag, std::size_t bins, double rate) {
    std::vector<SessionPlan> plans;
    for (std::size_t i = 0; i < sessions; ++i) {
      plans.push_back({tag + std::to_string(i), c.topology, c.window,
                       i * T / sessions, bins, rate});
    }
    return plans;
  };
  auto check = [&](const std::vector<SessionOutcome>& o,
                   const std::vector<SessionPlan>& plans) {
    for (std::size_t i = 0; i < o.size(); ++i) {
      tally.attempted += plans[i].bins;
      tally.failed += FailedBins(o[i], refs[i], plans[i].bins);
    }
  };

  // Set-up: launch to first WELCOME, on fresh servers; the last one
  // stays up for the measured phases.
  std::vector<Handshakes> hs;
  std::unique_ptr<ServerProcess> srv;
  for (std::size_t i = 0; i < a.size("setups"); ++i) {
    if (srv) srv->stop();
    srv = std::make_unique<ServerProcess>(a.str("ictm"), c.work + "/serve");
    SessionPlan plan = plansFor("", setupBins, 0.0)[0];
    hs.push_back(MeasureHandshakes(*srv, plan, traffic, refs[0], none,
                                   static_cast<int>(i)));
    tally.attempted += hs.back().attempted;
    tally.failed += hs.back().failed;
  }
  std::vector<double> setupS;
  for (const auto& h : hs) setupS.push_back(h.setupS);

  // Saturation: sessions fed as fast as the server takes bins.
  auto saturate = [&](std::size_t count, const std::string& tag,
                      SpanLog& spans) {
    auto plans = plansFor(tag, satBins, 0.0);
    plans.resize(count);
    const auto o = RunSessions(srv->endpoint(), plans, traffic, spans);
    check(o, plans);
    double first = o[0].firstSourceUs, last = 0.0;
    for (const auto& s : o) {
      first = std::min(first, s.firstSourceUs);
      last = std::max(last, s.endUs);
    }
    return static_cast<double>(count * satBins) / ((last - first) / 1e6);
  };
  const std::size_t rounds = a.size("rounds");
  const double limitMs = a.num("latency-limit-ms");
  std::size_t phases = 0;
  auto paced = [&](double rate, std::size_t bins) {
    const auto plans =
        plansFor("paced" + std::to_string(phases++) + "-", bins, rate);
    const auto o = RunSessions(srv->endpoint(), plans, traffic, none);
    check(o, plans);
    RatePhase p;
    for (const auto& s : o) {
      std::vector<double> lat;
      for (std::size_t k = 0; k < s.recvUs.size(); ++k) {
        lat.push_back((s.recvUs[k] - s.dueUs[k]) / 1e3);
        p.lateMs.push_back((s.sentUs[k] - s.dueUs[k]) / 1e3);
      }
      p.backlog = p.backlog || BacklogGrows(lat, limitMs);
      p.latencyMs.insert(p.latencyMs.end(), lat.begin(), lat.end());
    }
    return p;
  };

  if (!traced) {
    std::vector<double> one, all;
    for (std::size_t rep = 0; rep < a.size("saturation-reps"); ++rep) {
      one.push_back(saturate(1, "one" + std::to_string(rep) + "-", none));
      all.push_back(saturate(sessions, "all" + std::to_string(rep) + "-",
                             none));
    }
    out.num("bins_per_s", Median(all));
    out.num("bins_per_s_1t", Median(one));
    ReportRates(out, rounds, [&](std::size_t i) {
      return paced(rates[i], phaseBins(rates[i]));
    });
    out.num("sustained_bins_per_s",
            Sustained(ladder, Median(all) / static_cast<double>(sessions),
                      static_cast<double>(sessions), limitMs,
                      [&](double rate) { return paced(rate, rungBins(rate)); }));
    out.num("est_rel_l2", refs[0].errEst / refs[0].truthNorm);
    out.num("peak_rss_mb", srv->stop());
  } else {
    // Tracing overhead and attribution on the saturated phase.
    SpanLog spans(true);
    saturate(sessions, "plain-", none);
    const double plainRate = saturate(sessions, "plain2-", none);
    const int before = static_cast<int>(spans.spans().size());
    const double tracedRate = saturate(sessions, "traced-", spans);
    AddLayerShares(out, spans, before);  // the first session's root span
    const RatePhase p = paced(rates[1], phaseBins(rates[1]));
    out.num("load.late_p99_ms", Quantile(p.lateMs, 0.99));
    out.num("bin_latency_p99_ms.mid", LatencyP99(p.latencyMs));
    AddServerMetrics(out, hs, ServerStats(srv->endpoint()));
    srv->stop();
    // The library's streaming layers on the same traffic, one worker
    // per session as the server runs them.
    SpanLog layers(true);
    TraceStreamLayers(c, 1, a.size("solve-samples"), a.size("trace-reps"),
                      layers, out, tally);
    for (const auto& s : layers.spans()) {
      spans.add(s.name.c_str(), s.layer.c_str(), -1, s.bin, s.startUs,
                s.endUs);
    }
    // The service's tracing overhead replaces the replay's.
    out.num("obs.trace_overhead", plainRate / tracedRate);
    spans.writeChrome(a.str("trace-out"));
  }
  out.num("setup_s", Median(setupS));
  Setup s = BuildSetup(c.topology, none, -1);
  out.num("topology.routing_ms", s.routingMs);
  out.num("core.system_ms", s.systemMs);
  const double t0 = NowUs();
  {
    stream::StreamingEstimator est(s.system, Options(c, 1),
                                   [](std::size_t, const double*,
                                      const double*) {});
    out.num("stream.prior_model_ms", (NowUs() - t0) / 1e3);
    est.finish();
  }
  Finish(out, tally);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    if (argc < 2) throw std::runtime_error("usage: perfbench MODE ...");
    const std::string mode = argv[1];
    if (mode == "gen-geant" && argc == 5) {
      return GenGeant(argv[2], std::stoull(argv[3]), std::stoull(argv[4]));
    }
    if (mode == "gen-hier" && argc == 6) {
      return GenHier(argv[2], std::stoull(argv[3]), std::stoull(argv[4]),
                     std::stoull(argv[5]));
    }
    if (mode == "stream") return RunStream(ParseArgs(argc, argv, 2));
    if (mode == "serve") return RunServe(ParseArgs(argc, argv, 2));
    throw std::runtime_error("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
