// xarch end-to-end benchmark: ingest, open and serve an archive exactly
// as xarchd configures it, from one process, and print every metric that
// BENCHMARK.json names as one JSON line.
//
//   xarch_perfbench --workload ingest|read --seed N --seconds S
//                   --trace 0|1 [--out DIR] [--git-sha SHA] [--tiny]
//                   [--corrupt-expected]
//
// The store is OpenDurable over a StatsVfs(Posix) (xarchd's VFS), the
// archive backend with the XMark key specification, use_index=true,
// fsync on every log record, XAR2 checkpoints, and an in-process
// server::Server with xarch::Client connections over loopback. The seed
// is the only source of randomness; the program sees only the generated
// XMark versions and the queries drawn from them.
//
// Every run sets up once (several times, for setup_s) and then repeats
// rounds of build → open → serve → verify:
//   setup   generate the corpus, build a heap reference store (archive
//           backend, no index, no WAL, no wire) and compute the expected
//           output of every query from it; repeated, the median is setup_s;
//   build   one curator connection ingests one INGEST frame per version
//           into an empty durable directory, closed loop; the server is
//           drained and the directory checkpointed (XAR2 snapshot);
//   open    the checkpoint directory is opened cold several times
//           (OpenDurable + Server::Start + connect + first answer);
//   serve   reader connections run a closed loop over lookup / scan /
//           diff queries;
//   verify  the directory is checkpointed, reopened, and every version
//           is retrieved and compared with its input.
// Every network response is byte-compared with the reference output; a
// mismatch or failed call makes the run incorrect and the exit code 1.
//
// --trace 1 runs the pipeline untraced and then traced (client spans),
// then times each layer from outside by calling its public functions,
// writes the spans to DIR/spans-<workload>-<seed>.jsonl and prints the
// per-layer metrics instead of the end-to-end ones.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "client/client.h"
#include "core/archive.h"
#include "index/archive_index.h"
#include "keys/annotate.h"
#include "keys/key_spec.h"
#include "query/parser.h"
#include "server/server.h"
#include "synth/xmark.h"
#include "timing_vfs.h"
#include "tracer.h"
#include "util/random.h"
#include "vfs/stats_vfs.h"
#include "xarch/durable.h"
#include "xarch/store_registry.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

using namespace xarch;
using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Sec(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}
void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

/// Linear-interpolated quantile (numpy's default); 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / v.size();
}

// ------------------------------------------------------------ workloads

enum QueryClass { kLookup = 0, kScan = 1, kDiff = 2, kClassCount = 3 };
const char* const kClientSpans[kClassCount] = {
    "client.query.lookup", "client.query.scan", "client.query.diff"};

struct Workload {
  std::string name;
  synth::XMarkGenerator::Options shape;
  int versions = 0;  ///< versions the build phase ingests
  /// Rounds of build → open → serve → verify, each into a fresh directory,
  /// so every metric samples the whole run and not one stretch of it.
  int rounds = 2;
  /// Share of --seconds spent serving, split evenly over the rounds.
  double serve_share = 1;
};

/// Closed-loop reader connections. With a single connection the scan
/// latency split into two modes by thread wake-up pattern, and its median
/// jumped between them from run to run.
constexpr int kReaders = 3;
/// Shares of lookups, scans and diffs in the readers' mix.
constexpr double kClassWeights[kClassCount] = {0.6, 0.3, 0.1};

/// Versions the query-under-ingest probe appends (traced run only).
constexpr int kProbeAppends = 8;
constexpr double kMutatePct = 16.0;
constexpr int kSetupReps = 3;
constexpr int kOpenReps = 15;
constexpr int kPings = 200;

Workload MakeWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  const bool large = name != "ingest";
  w.shape.items = large ? 48 : 16;
  w.shape.people = large ? 90 : 30;
  w.shape.open_auctions = large ? 48 : 16;
  w.versions = large ? 64 : 200;
  if (name == "ingest") {
    w.rounds = 4;
    w.serve_share = 0.5;
  } else if (name != "read") {
    Die("unknown workload '" + name + "' (ingest, read)");
  }
  if (tiny) {
    w.shape.items = 4;
    w.shape.people = 8;
    w.shape.open_auctions = 4;
    w.versions = 12;
    w.rounds = 1;
  }
  return w;
}

// -------------------------------------------------------------- fixture

struct Query {
  QueryClass cls;
  std::string text;
  std::string expected;  ///< the reference store's answer
};

struct Fixture {
  /// Build versions, then the versions the query-under-ingest probe
  /// appends, as xml::Serialize emits them.
  std::vector<std::string> texts;
  int versions = 0;
  uint64_t build_bytes = 0;
  std::vector<Query> pool;
  std::vector<size_t> by_class[kClassCount];
};

keys::KeySpecSet XMarkSpec() {
  auto spec = keys::ParseKeySpecSet(synth::XMarkGenerator::KeySpecText());
  Check(spec.status(), "key spec");
  return std::move(*spec);
}

Fixture Setup(const Workload& w, uint64_t seed, int extras, bool corrupt) {
  Fixture fx;
  fx.versions = w.versions;
  synth::XMarkGenerator::Options shape = w.shape;
  shape.seed = seed;
  synth::XMarkGenerator gen(shape);
  std::vector<std::vector<std::string>> people(w.versions);
  for (int v = 0; v < w.versions + extras; ++v) {
    xml::NodePtr doc = gen.Current();
    if (v < w.versions) {
      const xml::Node* list = doc->FindChild("people");
      if (list != nullptr) {
        for (const xml::Node* p : list->FindChildren("person")) {
          if (const std::string* id = p->FindAttr("id")) {
            people[v].push_back(*id);
          }
        }
      }
      if (people[v].empty()) Die("generated version has no person");
    }
    fx.texts.push_back(xml::Serialize(*doc));
    if (v < w.versions) fx.build_bytes += fx.texts.back().size();
    gen.MutateRandom(kMutatePct);
  }

  StoreOptions options;
  options.spec = XMarkSpec();
  auto ref = StoreRegistry::Create("archive", std::move(options));
  Check(ref.status(), "reference store");
  std::vector<std::string_view> build(fx.texts.begin(),
                                      fx.texts.begin() + w.versions);
  Check((*ref)->AppendBatch(build), "reference ingest");

  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5BD1E995ull);
  const uint64_t n = static_cast<uint64_t>(w.versions);
  auto person_at = [&](uint64_t v) { return rng.Pick(people[v - 1]); };
  auto add = [&](QueryClass cls, std::string text) {
    fx.pool.push_back({cls, std::move(text), {}});
  };
  // Every version gets its own snapshot and two pinned lookups, so the
  // pool covers the archive alike for every seed and the class medians
  // do not hinge on which versions a few draws picked. A range scan costs
  // a tenth of a snapshot, so ranges are kept to 1 in 16 scans: the scan
  // median then sits inside the snapshot mode instead of in the gap
  // between the two.
  const std::string people_path = "/site/people/person";
  for (uint64_t v = 1; v <= n; ++v) {
    for (int i = 0; i < 2; ++i) {
      add(kLookup, people_path + "[@id=\"" + person_at(v) +
                       "\"] @ version " + std::to_string(v));
    }
    add(kScan, "/site @ version " + std::to_string(v));
  }
  for (uint64_t i = 0; i < n / 2; ++i) {
    add(kLookup,
        people_path + "[@id=\"" + person_at(rng.Uniform(1, n)) + "\"] history");
  }
  for (uint64_t i = 0; i < std::max<uint64_t>(1, n / 16); ++i) {
    const uint64_t a = rng.Uniform(1, n);
    add(kScan, people_path + "[*] @ versions " + std::to_string(a) + ".." +
                   std::to_string(std::min(n, a + 3)));
  }
  for (uint64_t i = 0; i < n / 2; ++i) {
    const uint64_t a = rng.Uniform(1, n - 1);
    const uint64_t b = a + rng.Uniform(1, std::min<uint64_t>(8, n - a));
    add(kDiff, "/site/people diff " + std::to_string(a) + " " +
                   std::to_string(b));
  }
  for (size_t i = 0; i < fx.pool.size(); ++i) {
    Query& q = fx.pool[i];
    StringSink sink;
    Check((*ref)->Query(q.text, sink), "reference query");
    q.expected = std::move(sink).Take();
    fx.by_class[q.cls].push_back(i);
  }
  if (corrupt) {
    // Self-check: one wrong expected answer must trip the gate. The first
    // lookup is the one every cold open asks.
    std::string& e = fx.pool[fx.by_class[kLookup][0]].expected;
    if (e.empty()) e.push_back('x');
    e.back() ^= 1;
  }
  return fx;
}

/// The input version as a correct Retrieve returns it: keyed siblings
/// are free to reorder, so the text goes through a one-version archive.
std::string CanonicalVersion(const std::string& text) {
  core::Archive single(XMarkSpec());
  auto doc = xml::Parse(text);
  Check(doc.status(), "xml::Parse");
  Check(single.AddVersion(**doc), "AddVersion");
  auto back = single.RetrieveVersion(1);
  Check(back.status(), "RetrieveVersion");
  return xml::Serialize(**back);
}

/// Byte-compares a streamed response with the expected output.
class ExpectSink final : public Sink {
 public:
  explicit ExpectSink(const std::string& expected) : expected_(expected) {}
  Status Append(std::string_view chunk) override {
    if (offset_ + chunk.size() > expected_.size() ||
        std::memcmp(expected_.data() + offset_, chunk.data(), chunk.size()) !=
            0) {
      match_ = false;
    }
    offset_ += chunk.size();
    return Status::OK();
  }
  bool matched() const { return match_ && offset_ == expected_.size(); }
  size_t bytes() const { return offset_; }

 private:
  const std::string& expected_;
  size_t offset_ = 0;
  bool match_ = true;
};

// -------------------------------------------------------- xarchd config

/// xarchd's disk VFS: every byte counted per op (process-wide registry).
vfs::Vfs* XarchdVfs() {
  static vfs::StatsVfs* stats = new vfs::StatsVfs(vfs::Vfs::Posix());
  return stats;
}

std::unique_ptr<Store> OpenXarchd(const std::string& dir, vfs::Vfs* vfs) {
  DurableOptions durable;
  durable.backend = "archive";
  durable.vfs = vfs;
  durable.fsync = persist::FsyncPolicy::kEveryRecord;
  durable.store.spec = XMarkSpec();
  durable.store.use_index = true;
  auto store = OpenDurable(dir, std::move(durable));
  Check(store.status(), "OpenDurable");
  return std::move(*store);
}

std::unique_ptr<server::Server> StartServer(Store& store) {
  server::ServerOptions options;  // xarchd defaults: 8 sessions, 4 in flight
  options.session_threads = 8;
  options.max_inflight_queries = 4;
  auto served = server::Server::Start(store, options);
  Check(served.status(), "Server::Start");
  return std::move(*served);
}

std::unique_ptr<Client> Connect(const server::Server& server) {
  auto client = Client::Connect("127.0.0.1", server.port());
  Check(client.status(), "Client::Connect");
  return std::move(*client);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ------------------------------------------------------------- pipeline

/// Raw samples of one pipeline run.
struct Run {
  std::vector<double> ingest_ms;
  double ingest_bytes = 0;
  double ingest_service_s = 0;         ///< summed send→ack time
  std::vector<double> stored_ratio;    ///< dir bytes / input bytes per build
  std::vector<double> open_ms;         ///< OpenDurable → first answer
  std::vector<double> durable_open_ms; ///< OpenDurable alone
  std::vector<double> class_ms[kClassCount];
  uint64_t reads_ok = 0;
  double serve_s = 0;
  std::vector<double> ping_us;
  uint64_t busy_rejects = 0;            ///< server STATS, summed over rounds
  std::vector<double> server_p99_us;    ///< server STATS, one per round
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< failed, refused or wrong operations
  uint64_t incorrect = 0;   ///< wrong answers and non-BUSY errors
};

struct Counters {
  std::atomic<uint64_t> attempted{0}, failed{0}, incorrect{0};
  /// Counts one operation; returns true for the first few incorrect ones,
  /// which the caller reports.
  bool Op(bool ok, bool correct) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
    return !correct && incorrect.fetch_add(1, std::memory_order_relaxed) < 5;
  }
};

/// One query over the wire, compared with the reference answer; false
/// when it failed, was refused or answered wrongly.
bool NetQuery(Client& client, const Query& q, Counters& counters,
              Tracer* tracer, uint64_t request) {
  ExpectSink sink(q.expected);
  Status st;
  {
    ScopedSpan span(tracer, kClientSpans[q.cls], request);
    st = client.Query(q.text, sink);
  }
  const bool busy = !st.ok() && client.last_error_code() == net::ErrorCode::kBusy;
  const bool ok = st.ok() && sink.matched();
  if (counters.Op(ok, ok || busy)) {
    std::fprintf(stderr, "perfbench: %s: %s\n", q.text.c_str(),
                 st.ok() ? "response differs from the reference"
                         : st.ToString().c_str());
  }
  return ok;
}

class Pipeline {
 public:
  Pipeline(const Workload& w, const Fixture& fx, uint64_t seed,
           double seconds, const std::string& work, Tracer* tracer)
      : w_(w), fx_(fx), seed_(seed), seconds_(seconds), work_(work),
        tracer_(tracer) {}

  /// Runs the rounds of build → open → serve → verify; returns the last
  /// round's directory.
  std::string Execute(Run* run) {
    run_ = run;
    const double serve_seconds = seconds_ * w_.serve_share / w_.rounds;
    std::string dir;
    for (int round = 0; round < w_.rounds; ++round) {
      if (!dir.empty()) std::filesystem::remove_all(dir);
      dir = work_ + "/store-" + std::to_string(round);
      Build(dir);
      std::unique_ptr<Store> store;
      std::unique_ptr<server::Server> server;
      OpenCold(dir, &store, &server);
      Serve(*server, serve_seconds);
      server->Join();
      server.reset();
      Check(CheckpointDurableIfDirty(*store), "checkpoint");
      store.reset();
      Verify(dir, fx_.versions);
    }
    run_->attempted = counters_.attempted.load();
    run_->failed = counters_.failed.load();
    run_->incorrect = counters_.incorrect.load();
    return dir;
  }

 private:
  void Build(const std::string& dir) {
    std::unique_ptr<Store> store = OpenXarchd(dir, XarchdVfs());
    std::unique_ptr<server::Server> server = StartServer(*store);
    std::unique_ptr<Client> curator = Connect(*server);
    for (int v = 0; v < fx_.versions; ++v) {
      const std::string& text = fx_.texts[v];
      const auto t0 = Clock::now();
      StatusOr<Version> got = [&] {
        ScopedSpan span(tracer_, "client.ingest", v + 1);
        return curator->Ingest({text});
      }();
      const double ms = Ms(Clock::now() - t0);
      const bool ok = got.ok() && *got == static_cast<Version>(v + 1);
      counters_.Op(ok, ok);
      if (!ok) Die("build ingest of version " + std::to_string(v + 1) +
                   " failed: " + got.status().ToString());
      run_->ingest_ms.push_back(ms);
      run_->ingest_bytes += text.size();
      run_->ingest_service_s += ms / 1e3;
    }
    curator.reset();
    server->Join();
    {
      ScopedSpan span(tracer_, "xarch.checkpoint");
      Check(CheckpointDurableIfDirty(*store), "checkpoint");
    }
    store.reset();
    run_->stored_ratio.push_back(static_cast<double>(DirBytes(dir)) /
                                 fx_.build_bytes);
  }

  /// Opens `dir` kOpenReps times, timing OpenDurable up to the first
  /// answer over a fresh connection; keeps the last store serving.
  void OpenCold(const std::string& dir, std::unique_ptr<Store>* store,
                std::unique_ptr<server::Server>* server) {
    const Query& first = fx_.pool[fx_.by_class[kLookup][0]];
    for (int i = 0; i < kOpenReps; ++i) {
      server->reset();
      store->reset();
      ScopedSpan span(tracer_, "open.cold", i + 1);
      const auto t0 = Clock::now();
      {
        ScopedSpan open(tracer_, "xarch.open");
        *store = OpenXarchd(dir, XarchdVfs());
      }
      const auto t1 = Clock::now();
      *server = StartServer(**store);
      std::unique_ptr<Client> client = Connect(**server);
      const bool ok = NetQuery(*client, first, counters_, tracer_, 0);
      const auto t2 = Clock::now();
      if (ok) {
        run_->open_ms.push_back(Ms(t2 - t0));
        run_->durable_open_ms.push_back(Ms(t1 - t0));
      }
    }
  }

  /// Reader connections run a closed loop over the query mix.
  void Serve(server::Server& server, double serve_seconds) {
    std::vector<std::unique_ptr<Client>> clients;
    for (int r = 0; r < kReaders; ++r) clients.push_back(Connect(server));
    std::vector<std::vector<double>> samples(kReaders * kClassCount);
    std::vector<uint64_t> ok_reads(kReaders, 0);

    const auto start = Clock::now();
    const auto end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(serve_seconds));
    auto reader = [&](int id) {
      Rng rng(seed_ * 1000003ull + 17ull * (id + 1));
      uint64_t request = (static_cast<uint64_t>(id) + 1) << 40;
      while (Clock::now() < end) {
        const double pick = rng.NextDouble();
        QueryClass cls = kLookup;
        if (pick >= kClassWeights[kLookup]) {
          cls = pick < kClassWeights[kLookup] + kClassWeights[kScan] ? kScan
                                                                     : kDiff;
        }
        const auto t0 = Clock::now();
        const Query& q = fx_.pool[rng.Pick(fx_.by_class[cls])];
        if (NetQuery(*clients[id], q, counters_, tracer_, ++request)) {
          samples[id * kClassCount + cls].push_back(Ms(Clock::now() - t0));
          ++ok_reads[id];
        }
      }
    };
    std::vector<std::thread> threads;
    for (int r = 1; r < kReaders; ++r) threads.emplace_back(reader, r);
    reader(0);
    for (std::thread& t : threads) t.join();
    run_->serve_s += Sec(Clock::now() - start);

    for (int r = 0; r < kReaders; ++r) {
      run_->reads_ok += ok_reads[r];
      for (int c = 0; c < kClassCount; ++c) {
        const auto& s = samples[r * kClassCount + c];
        run_->class_ms[c].insert(run_->class_ms[c].end(), s.begin(), s.end());
      }
    }
    for (int i = 0; i < kPings; ++i) {
      const auto t0 = Clock::now();
      Status st;
      {
        ScopedSpan span(tracer_, "client.ping");
        st = clients[0]->Ping();
      }
      counters_.Op(st.ok(), st.ok());
      if (st.ok()) run_->ping_us.push_back(Ms(Clock::now() - t0) * 1e3);
    }
    auto stats = clients[0]->Stats();
    Check(stats.status(), "Client::Stats");
    run_->busy_rejects += stats->rejected_busy;
    run_->server_p99_us.push_back(stats->query_latency_p99_us);
  }

  /// Reopens the directory and compares every version with its input,
  /// normalized to the archive's keyed-sibling order.
  void Verify(const std::string& dir, int expected_versions) {
    ScopedSpan span(tracer_, "verify");
    std::unique_ptr<Store> store = OpenXarchd(dir, XarchdVfs());
    const bool count_ok =
        store->version_count() == static_cast<Version>(expected_versions);
    if (counters_.Op(count_ok, count_ok)) {
      std::fprintf(stderr, "perfbench: reopened store has %llu versions, "
                   "expected %d\n",
                   static_cast<unsigned long long>(store->version_count()),
                   expected_versions);
    }
    const int workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> threads;
    for (int t = 0; t < workers; ++t) {
      threads.emplace_back([&, t] {
        for (int v = 1 + t; v <= expected_versions; v += workers) {
          auto got = store->Retrieve(v);
          const bool ok =
              got.ok() && *got == CanonicalVersion(fx_.texts[v - 1]);
          if (counters_.Op(ok, ok)) {
            std::fprintf(stderr,
                         "perfbench: version %d differs after reopen\n", v);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  const Workload& w_;
  const Fixture& fx_;
  const uint64_t seed_;
  const double seconds_;
  const std::string work_;
  Tracer* const tracer_;
  Run* run_ = nullptr;
  Counters counters_;
};

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Run& run, double setup_s) {
  const auto& c = run.class_ms;
  return {
      {"setup_s", setup_s, "s"},
      {"ingest_mb_s", run.ingest_bytes / 1e6 / run.ingest_service_s, "MB/s"},
      {"ingest_ms_p50", Median(run.ingest_ms), "ms"},
      {"ingest_ms_p95", Quantile(run.ingest_ms, 0.95), "ms"},
      {"stored_bytes_per_input_byte", Median(run.stored_ratio), "ratio"},
      {"open_ms_p50", Median(run.open_ms), "ms"},
      {"read_qps", run.reads_ok / run.serve_s, "1/s"},
      {"lookup_ms_p50", Median(c[kLookup]), "ms"},
      {"lookup_ms_p90", Quantile(c[kLookup], 0.90), "ms"},
      // A mean, not a median: with concurrent readers the wire latency of
      // a snapshot has two modes whose shares shift with host load, and
      // the median jumps between them from run to run.
      {"scan_ms_mean", Mean(c[kScan]), "ms"},
      {"scan_ms_p90", Quantile(c[kScan], 0.90), "ms"},
      {"diff_ms_p50", Median(c[kDiff]), "ms"},
      {"diff_ms_p90", Quantile(c[kDiff], 0.90), "ms"},
      {"ok_ratio",
       static_cast<double>(run.attempted - run.failed) / run.attempted,
       "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = metrics[i].value;
    if (!std::isfinite(value)) value = 0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintSamples(const Run& run) {
  std::printf("# samples: ingest=%zu open=%zu lookup=%zu scan=%zu diff=%zu "
              "serve_s=%.2f\n",
              run.ingest_ms.size(), run.open_ms.size(),
              run.class_ms[kLookup].size(), run.class_ms[kScan].size(),
              run.class_ms[kDiff].size(), run.serve_s);
}

// ------------------------------------------------------- layer probes

/// Times each ingest layer from outside on the build versions: the layer
/// calls run on a shadow heap archive, and Store::Append on a durable
/// store whose VFS is the timing decorator. Means per version.
void IngestLayers(const Fixture& fx, const std::string& dir, Tracer* tracer,
                  std::vector<Metric>* out) {
  TimingVfs timing(XarchdVfs(), tracer);
  std::unique_ptr<Store> store = OpenXarchd(dir, &timing);
  core::Archive shadow(XMarkSpec());
  double parse_ms = 0, annotate_ms = 0, merge_ms = 0, index_ms = 0;
  double append_ms = 0, write_ms = 0, sync_ms = 0;
  for (int v = 0; v < fx.versions; ++v) {
    const std::string& text = fx.texts[v];
    ScopedSpan version(tracer, "layers.version", v + 1);
    auto t0 = Clock::now();
    StatusOr<xml::NodePtr> doc = [&] {
      ScopedSpan span(tracer, "xml.parse");
      return xml::Parse(text);
    }();
    Check(doc.status(), "xml::Parse");
    auto t1 = Clock::now();
    {
      ScopedSpan span(tracer, "keys.annotate");
      Check(keys::AnnotateKeys(**doc, shadow.spec()).status(),
            "AnnotateKeys");
    }
    auto t2 = Clock::now();
    {
      ScopedSpan span(tracer, "core.add_version");
      Check(shadow.AddVersion(**doc), "AddVersion");
    }
    auto t3 = Clock::now();
    {
      ScopedSpan span(tracer, "index.build");
      index::ArchiveIndex built(shadow);
    }
    auto t4 = Clock::now();
    const TimingVfs::Totals before = timing.totals();
    {
      ScopedSpan span(tracer, "xarch.append");
      Check(store->Append(text), "Store::Append");
    }
    auto t5 = Clock::now();
    const TimingVfs::Totals after = timing.totals();
    parse_ms += Ms(t1 - t0);
    annotate_ms += Ms(t2 - t1);
    merge_ms += Ms(t3 - t2) - Ms(t2 - t1);
    index_ms += Ms(t4 - t3);
    append_ms += Ms(t5 - t4);
    write_ms += (after.write_ns - before.write_ns) / 1e6;
    sync_ms += (after.sync_ns - before.sync_ns) / 1e6;
  }
  std::vector<double> encode_ms;
  size_t snapshot_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "xarch.snapshot_encode");
    const auto t0 = Clock::now();
    auto bytes = store->SaveToBytes();
    Check(bytes.status(), "SaveToBytes");
    encode_ms.push_back(Ms(Clock::now() - t0));
    snapshot_bytes = bytes->size();
  }
  {
    ScopedSpan span(tracer, "xarch.checkpoint");
    Check(CheckpointDurableIfDirty(*store), "checkpoint");
  }
  const double n = fx.versions;
  const double unattributed = append_ms - parse_ms - annotate_ms - merge_ms -
                              index_ms - write_ms - sync_ms;
  const double input_mb = fx.build_bytes / 1e6;
  out->insert(out->end(), {
      {"xml.parse_mb_s", input_mb / (parse_ms / 1e3), "MB/s"},
      {"keys.annotate_ms", annotate_ms / n, "ms"},
      {"core.merge_self_ms", merge_ms / n, "ms"},
      {"core.archive_nodes", static_cast<double>(shadow.CountNodes()),
       "count"},
      {"index.build_ms", index_ms / n, "ms"},
      {"vfs.write_ms", write_ms / n, "ms"},
      {"vfs.sync_ms", sync_ms / n, "ms"},
      {"vfs.bytes_written_per_input_byte",
       static_cast<double>(timing.totals().bytes_written) / fx.build_bytes,
       "ratio"},
      {"xarch.append_ms", append_ms / n, "ms"},
      {"xarch.unattributed_ms", unattributed / n, "ms"},
      {"xarch.snapshot_encode_ms", Median(encode_ms), "ms"},
      {"persist.snapshot_bytes", static_cast<double>(snapshot_bytes),
       "bytes"},
  });
  std::printf("# ingest layers, mean ms per version over %d versions: "
              "parse %.3f + annotate %.3f + merge_self %.3f + index %.3f + "
              "vfs_write %.3f + vfs_sync %.3f + unattributed %.3f = "
              "append %.3f\n",
              fx.versions, parse_ms / n, annotate_ms / n, merge_ms / n,
              index_ms / n, write_ms / n, sync_ms / n, unattributed / n,
              append_ms / n);
}

/// In-process Store::Query per class on the reopened final directory;
/// then the same lookups on a reader thread while a writer thread runs
/// Store::Append.
void QueryLayers(const Fixture& fx, const Run& run, const std::string& dir,
                 Tracer* tracer, std::vector<Metric>* out) {
  std::unique_ptr<Store> store = OpenXarchd(dir, XarchdVfs());
  Counters counters;
  double class_median[kClassCount];
  double probe_ratio[kClassCount];
  double scan_bytes = 0, scan_ms = 0;
  for (int c = 0; c < kClassCount; ++c) {
    const StoreStats before = store->Stats();
    std::vector<double> ms;
    const auto start = Clock::now();
    for (size_t i = 0; i < fx.by_class[c].size() * 4 ||
                       Sec(Clock::now() - start) < 0.3;
         ++i) {
      const Query& q = fx.pool[fx.by_class[c][i % fx.by_class[c].size()]];
      ExpectSink sink(q.expected);
      const auto t0 = Clock::now();
      Status st;
      {
        ScopedSpan span(tracer, "xarch.query");
        st = store->Query(q.text, sink);
      }
      const double took = Ms(Clock::now() - t0);
      counters.Op(st.ok() && sink.matched(), st.ok() && sink.matched());
      ms.push_back(took);
      if (c == kScan) {
        scan_bytes += sink.bytes();
        scan_ms += took;
      }
    }
    const StoreStats after = store->Stats();
    class_median[c] = Median(ms);
    const double naive = after.query_naive_probes - before.query_naive_probes;
    probe_ratio[c] =
        naive > 0 ? (after.query_tree_probes - before.query_tree_probes) / naive
                  : 0;
  }

  std::vector<double> parse_us;
  for (int rep = 0; rep < 20; ++rep) {
    for (const Query& q : fx.pool) {
      const auto t0 = Clock::now();
      ScopedSpan span(tracer, "query.parse");
      Check(query::Parse(q.text).status(), "query::Parse");
      parse_us.push_back(Ms(Clock::now() - t0) * 1e3);
    }
  }

  // Query under ingest: lookups pinned to build versions stay comparable.
  std::vector<double> under_ms;
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    const size_t first = store->version_count();
    for (int i = 0; i < kProbeAppends && first + i < fx.texts.size(); ++i) {
      ScopedSpan span(tracer, "xarch.append");
      Check(store->Append(fx.texts[first + i]), "Store::Append");
    }
    writing.store(false);
  });
  std::vector<size_t> pinned;
  for (size_t i : fx.by_class[kLookup]) {
    if (fx.pool[i].text.find(" @ version ") != std::string::npos) {
      pinned.push_back(i);
    }
  }
  for (size_t i = 0; writing.load() || i < 200; ++i) {
    const Query& q = fx.pool[pinned[i % pinned.size()]];
    ExpectSink sink(q.expected);
    const auto t0 = Clock::now();
    Status st;
    {
      ScopedSpan span(tracer, "xarch.query_under_ingest");
      st = store->Query(q.text, sink);
    }
    under_ms.push_back(Ms(Clock::now() - t0));
    counters.Op(st.ok() && sink.matched(), st.ok() && sink.matched());
  }
  writer.join();
  if (counters.incorrect.load() != 0) {
    Die("in-process query answers differ from the reference");
  }

  const double net_lookup = Median(run.class_ms[kLookup]);
  const double net_scan = Median(run.class_ms[kScan]);
  out->insert(out->end(), {
      {"index.probe_ratio.lookup", probe_ratio[kLookup], "ratio"},
      {"index.probe_ratio.scan", probe_ratio[kScan], "ratio"},
      {"query.parse_us", Mean(parse_us), "us"},
      {"xarch.query_ms.lookup", class_median[kLookup], "ms"},
      {"xarch.query_ms.scan", class_median[kScan], "ms"},
      {"xarch.query_ms.diff", class_median[kDiff], "ms"},
      {"query.scan_mb_s", scan_bytes / 1e6 / (scan_ms / 1e3), "MB/s"},
      {"xarch.query_under_ingest_ms_p99", Quantile(under_ms, 0.99), "ms"},
      {"xarch.open_ms", Median(run.durable_open_ms), "ms"},
      {"net.ping_us", Median(run.ping_us), "us"},
      {"net.overhead_us.lookup", (net_lookup - class_median[kLookup]) * 1e3,
       "us"},
      {"net.overhead_us.scan", (net_scan - class_median[kScan]) * 1e3, "us"},
      {"server.busy_rejects", static_cast<double>(run.busy_rejects),
       "count"},
      {"server.query_us_p99", Median(run.server_p99_us), "us"},
  });
}

/// The paper's diff-repository baseline over the same build versions.
double IncrDiffRatio(const Fixture& fx) {
  auto store = StoreRegistry::Create("incr-diff", StoreOptions());
  Check(store.status(), "incr-diff store");
  std::vector<std::string_view> build(fx.texts.begin(),
                                      fx.texts.begin() + fx.versions);
  Check((*store)->AppendBatch(build), "incr-diff ingest");
  return static_cast<double>((*store)->ByteSize()) / fx.build_bytes;
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".bench_out";
  std::string git_sha = "unknown";
  bool tiny = false;
  bool corrupt = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--git-sha") {
      a.git_sha = value();
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--corrupt-expected") {
      a.corrupt = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload || a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    Die("usage: xarch_perfbench --workload ingest|read --seed N "
        "--seconds S --trace 0|1 [--out DIR] [--tiny] [--corrupt-expected]");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload w = MakeWorkload(args.workload, args.tiny);

  const std::string work =
      args.out + "/work-" + std::to_string(::getpid());
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  // Set-up runs several times; the last fixture is used.
  std::vector<double> setup_s;
  Fixture fx;
  for (int i = 0; i < (args.trace ? 1 : kSetupReps); ++i) {
    fx = Fixture();
    const auto t0 = Clock::now();
    fx = Setup(w, args.seed, kProbeAppends, args.corrupt);
    setup_s.push_back(Sec(Clock::now() - t0));
  }

  std::printf("# env {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"nproc\": %u, \"seed\": %llu, "
              "\"workload\": \"%s\", \"corpus_bytes\": %llu, "
              "\"corpus_versions\": %d, \"fsync\": \"every-record\", "
              "\"seconds\": %g, \"trace\": %d}\n",
              args.git_sha.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(args.seed), w.name.c_str(),
              static_cast<unsigned long long>(fx.build_bytes), fx.versions,
              args.seconds, args.trace);

  Run run;
  Pipeline(w, fx, args.seed, args.seconds, work + "/e2e", nullptr)
      .Execute(&run);
  PrintSamples(run);
  bool correct = run.incorrect == 0;
  uint64_t attempted = run.attempted, failed = run.failed;

  if (args.trace == 0) {
    PrintResult(correct, attempted, failed, EndToEnd(run, Median(setup_s)));
    std::filesystem::remove_all(work);
    return correct ? 0 : 1;
  }

  Tracer tracer;
  Run traced;
  const std::string dir =
      Pipeline(w, fx, args.seed, args.seconds, work + "/traced", &tracer)
          .Execute(&traced);
  PrintSamples(traced);
  correct = correct && traced.incorrect == 0;
  attempted += traced.attempted;
  failed += traced.failed;

  std::vector<Metric> metrics;
  IngestLayers(fx, work + "/layers", &tracer, &metrics);
  QueryLayers(fx, traced, dir, &tracer, &metrics);
  metrics.push_back({"diff.incr_bytes_per_input_byte", IncrDiffRatio(fx),
                     "ratio"});
  const double untraced_p50 = Median(run.ingest_ms);
  const double untraced_qps = run.reads_ok / run.serve_s;
  metrics.push_back({"trace.overhead_pct.ingest_ms_p50",
                     100 * (Median(traced.ingest_ms) - untraced_p50) /
                         untraced_p50,
                     "%"});
  metrics.push_back({"trace.overhead_pct.read_qps",
                     100 * (untraced_qps - traced.reads_ok / traced.serve_s) /
                         untraced_qps,
                     "%"});

  const std::string spans = args.out + "/spans-" + w.name + "-" +
                            std::to_string(args.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(spans)) Die("cannot write " + spans);
  std::printf("# spans: %zu written to %s\n", tracer.size(), spans.c_str());
  std::printf("# span self time (ms): name total count mean\n");
  for (const auto& [name, t] : tracer.SelfTimes()) {
    std::printf("#   %-28s %12.3f %8llu %10.4f\n", name.c_str(), t.total_ms,
                static_cast<unsigned long long>(t.count),
                t.total_ms / t.count);
  }
  PrintResult(correct, attempted, failed, metrics);
  std::filesystem::remove_all(work);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
