// End-to-end and per-layer benchmark of the Xorbits engine preset.
//
//   perfbench --workload <tpch_adhoc|shuffle_sort|tenants_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Every workload is a closed loop over a fixed query list (one "pass"),
// driven through the public API only. Setup generates the inputs from the
// seed, computes an oracle result for every query of the pass and runs one
// untimed warm-up pass; the timed region then repeats whole passes until
// `--seconds` of pass wall time have accumulated. Every result is checked
// against its oracle; a mismatch, an error or a shed request is a failure.
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 runs
// untraced passes, then traced passes (Config::trace.sink), and derives the
// per-layer metrics from the Tracer spans and stage totals, the Metrics
// snapshots and deltas of the process-global stat structs, plus a few
// direct probes of single layers. Nothing inside the engine is changed to
// measure it. The last line of stdout is one JSON object; see README.md.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/exchange_stats.h"
#include "common/late_stats.h"
#include "common/trace_names.h"
#include "common/tracing.h"
#include "core/session_manager.h"
#include "core/xorbits.h"
#include "dataframe/kernels.h"
#include "io/tpch_gen.h"
#include "io/xparquet.h"
#include "services/chunk_data.h"
#include "workloads/pipelines.h"
#include "workloads/tpch_queries.h"

namespace xorbits::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using dataframe::AggFunc;
using dataframe::DataFrame;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Restarts the process's peak-RSS count (VmHWM) from its current RSS, after
/// handing memory that setup freed back to the kernel, so the next
/// PeakRssMiB() covers only what runs after this call. False if the kernel
/// does not allow the reset; the peak then covers the whole process.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return !clear.fail();
}

/// VmHWM from /proc/self/status, in MiB.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank rank (1-based) of the `pct` percentile in a sample of n.
size_t PercentileRank(double pct, size_t n) {
  const auto rank =
      static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

/// Smallest sample with at least ten samples above its `pct` percentile.
size_t TailSamples(double pct) {
  size_t n = 11;
  while (n - PercentileRank(pct, n) < 10) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Result checking

/// Sorts by every column so row order, which legitimately differs between
/// shuffle layouts, does not affect the comparison.
DataFrame Canonicalize(const DataFrame& df) {
  if (df.num_rows() <= 1) return df;
  auto sorted = dataframe::SortValues(df, df.column_names());
  return sorted.ok() ? sorted.MoveValue() : df;
}

/// Same schema and values; float64 cells may differ by a relative 1e-6
/// (distributed aggregation sums in a different order).
bool TablesEqual(const DataFrame& a, const DataFrame& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    if (a.column_name(c) != b.column_name(c)) return false;
    const dataframe::Column& ca = a.column(c);
    const dataframe::Column& cb = b.column(c);
    if (ca.dtype() != cb.dtype()) return false;
    const bool is_float = ca.dtype() == dataframe::DType::kFloat64;
    for (int64_t i = 0; i < a.num_rows(); ++i) {
      const bool na = ca.IsNull(i);
      if (na != cb.IsNull(i)) return false;
      if (na) continue;
      if (is_float) {
        const double va = ca.float64_data()[i];
        const double vb = cb.float64_data()[i];
        if (std::fabs(va - vb) > 1e-6 * (1.0 + std::fabs(vb))) return false;
      } else if (!(ca.GetScalar(i) == cb.GetScalar(i))) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Measurement plumbing

/// Counters, gauges and histogram sums added up over several Metrics
/// snapshots (a tenant pass has one per session plus the cluster's).
struct CounterBag {
  std::map<std::string, int64_t> values;

  void Add(const MetricsSnapshot& s) {
    for (const auto& [name, v] : s.counters) values[name] += v;
    for (const auto& [name, v] : s.gauges) values[name] += v;
    for (const HistogramSnapshot& h : s.histograms) {
      values[h.name + ".sum"] += h.sum;
    }
  }
  void Add(const CounterBag& other) {
    for (const auto& [name, v] : other.values) values[name] += v;
  }
  int64_t Get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  }
};

/// The process-global stat structs; per-pass figures are deltas.
struct GlobalStats {
  int64_t cow_copies = 0;
  int64_t copies_avoided = 0;
  int64_t bytes_materialized = 0;
  int64_t lazy_columns_decoded = 0;
  int64_t wire_bytes = 0;
  int64_t memory_bytes = 0;
  int64_t blocks_produced = 0;
  int64_t backpressure_us = 0;

  static GlobalStats Now() {
    GlobalStats g;
    const auto& b = common::BufferStats::Get();
    const auto& l = common::LateStats::Get();
    const auto& e = common::ExchangeStats::Get();
    g.cow_copies = b.cow_copies.load();
    g.copies_avoided = b.copies_avoided.load();
    g.bytes_materialized = l.bytes_materialized.load();
    g.lazy_columns_decoded = l.lazy_columns_decoded.load();
    g.wire_bytes = e.shuffle_wire_bytes.load();
    g.memory_bytes = e.shuffle_memory_bytes.load();
    g.blocks_produced = e.shuffle_blocks_produced.load();
    g.backpressure_us = e.exchange_backpressure_us.load();
    return g;
  }
  GlobalStats Minus(const GlobalStats& o) const {
    GlobalStats d;
    d.cow_copies = cow_copies - o.cow_copies;
    d.copies_avoided = copies_avoided - o.copies_avoided;
    d.bytes_materialized = bytes_materialized - o.bytes_materialized;
    d.lazy_columns_decoded = lazy_columns_decoded - o.lazy_columns_decoded;
    d.wire_bytes = wire_bytes - o.wire_bytes;
    d.memory_bytes = memory_bytes - o.memory_bytes;
    d.blocks_produced = blocks_produced - o.blocks_produced;
    d.backpressure_us = backpressure_us - o.backpressure_us;
    return d;
  }
};

/// One query of a pass as the client saw it.
struct QueryRecord {
  int query = 0;  // index into the workload's oracle
  double latency_ms = 0;
  Status status = Status::OK();
  DataFrame result;
};

struct PassResult {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<QueryRecord> records;
  CounterBag counters;
};

/// Span the benchmark records around each public call when tracing; the
/// Tracer attaches the call's wall time as its `wall_us` arg.
constexpr char kBenchSpan[] = "bench:query";

/// Times one public call. With a tracer, also records a bench span.
QueryRecord TimedCall(Tracer* tracer, int bench_pid, int query,
                      const std::function<Result<DataFrame>()>& call) {
  QueryRecord rec;
  rec.query = query;
  Tracer::Span span;
  if (tracer != nullptr) {
    span = tracer->BeginSpan(bench_pid, kTrackSupervisor, kBenchSpan);
  }
  const auto t0 = Clock::now();
  Result<DataFrame> r = call();
  rec.latency_ms = SecondsSince(t0) * 1e3;
  if (tracer != nullptr) tracer->EndSpan(&span);
  if (r.ok()) {
    rec.result = r.MoveValue();
  } else {
    rec.status = r.status();
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Workloads

/// The simulated cluster every workload runs on: one worker with two bands
/// and one execution slot per band, so no kernel pool is created and the
/// client threads plus the two band threads fit in the host's cores.
Config ClusterConfig(int64_t chunk_store_limit, const std::string& run_dir) {
  Config c = Config::Preset(EngineKind::kXorbits);
  c.num_workers = 1;
  c.bands_per_worker = 2;
  c.cpus_per_band = 1;
  c.band_memory_limit = 1LL << 30;  // nothing spills
  c.chunk_store_limit = chunk_store_limit;
  c.spill_dir = run_dir + "/spill";
  return c;
}

/// Threads that can run at once: clients, band threads and kernel-pool
/// threads (band threads help the pool they call into, but still count).
int ThreadsNeeded(const Config& c, int clients) {
  const int bands = c.total_bands();
  const int pool = c.cpus_per_band > 1 ? bands * c.cpus_per_band : 0;
  return clients + bands + pool;
}

/// The single-band reference engine the oracles run on.
Config ReferenceConfig(const std::string& run_dir) {
  Config c = Config::Preset(EngineKind::kPandasLike);
  c.band_memory_limit = 1LL << 30;
  c.spill_dir = run_dir + "/spill";
  return c;
}

/// Wall time of one in-memory TPC-H generation.
double TpchGenMs(double scale_factor, uint64_t seed) {
  const auto t0 = Clock::now();
  Result<io::tpch::Tables> t = io::tpch::Generate(scale_factor, seed);
  return t.ok() ? SecondsSince(t0) * 1e3 : 0.0;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const { return 1; }
  /// Percentile reported as latency_tail_ms. Each workload picks one that
  /// lies inside its slowest query class (see README.md); the timed region
  /// lasts until ten samples lie above it.
  virtual double tail_percentile() const = 0;
  virtual Config cluster() const = 0;
  /// Generates the inputs into `dir` (or memory) and computes the oracle.
  virtual Status Prepare(const std::string& dir, uint64_t seed) = 0;
  /// Runs the fixed query list once; `tracer` may be null.
  virtual PassResult RunPass(Tracer* tracer) = 0;
  /// Wall time of one direct call of the workload's input generator.
  virtual double InputGenProbeMs() = 0;

  /// Checks one record against the oracle computed by Prepare.
  bool Verify(const QueryRecord& rec) const {
    if (!rec.status.ok()) return false;
    if (rec.query < 0 || rec.query >= static_cast<int>(oracle_.size())) {
      return false;
    }
    return TablesEqual(Comparable(rec.query, rec.result), oracle_[rec.query]);
  }

 protected:
  /// Queries whose row order is part of the result (a sort).
  virtual bool OrderMatters(int query) const { return false; }

  /// `df` as compared: canonicalized unless its order matters.
  DataFrame Comparable(int query, const DataFrame& df) const {
    return OrderMatters(query) ? df : Canonicalize(df);
  }

  /// Expected result per query index, in Comparable form.
  std::vector<DataFrame> oracle_;
};

/// Runs `body(q, session)` for every query index q, each in a fresh solo
/// session, and collects the records, metrics and timing of the pass.
template <typename Body>
PassResult RunSoloPass(const Config& base, Tracer* tracer, int num_queries,
                       Body&& body) {
  PassResult pass;
  int bench_pid = 0;
  if (tracer != nullptr) bench_pid = tracer->RegisterProcess("perfbench", 0);
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  for (int q = 0; q < num_queries; ++q) {
    Config c = base;
    c.trace.sink = tracer;
    core::Session session(c);
    pass.records.push_back(TimedCall(tracer, bench_pid, q, [&] {
      return body(q, &session);
    }));
    pass.counters.Add(session.metrics().Snapshot());
  }
  pass.wall_s = SecondsSince(t0);
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  return pass;
}

/// TPC-H queries on xparquet files, one solo session per query.
class TpchAdhoc : public Workload {
 public:
  static constexpr double kScaleFactor = 0.01;

  explicit TpchAdhoc(std::string run_dir) : run_dir_(std::move(run_dir)) {}

  /// Q12, the slowest query, is the top 1/22 of samples (p95.5 to p100);
  /// p97 sits inside it. p95 would sit on the edge of the next class.
  double tail_percentile() const override { return 97; }

  Config cluster() const override {
    // Small chunks: every chunk of a scan reads its whole column blocks,
    // so scan work grows with chunks x file size.
    return ClusterConfig(256LL << 10, run_dir_);
  }

  Status Prepare(const std::string& dir, uint64_t seed) override {
    dir_ = dir;
    seed_ = seed;
    XORBITS_RETURN_NOT_OK(io::tpch::GenerateFiles(kScaleFactor, dir, seed));
    oracle_.clear();
    for (int q = 1; q <= workloads::tpch::NumQueries(); ++q) {
      core::Session session(ReferenceConfig(run_dir_));
      Result<DataFrame> r = workloads::tpch::RunQuery(q, &session, dir);
      if (!r.ok()) return r.status().WithContext("oracle Q" + std::to_string(q));
      oracle_.push_back(Comparable(q - 1, *r));
    }
    return Status::OK();
  }

  /// Record i of a pass is TPC-H query i + 1.
  PassResult RunPass(Tracer* tracer) override {
    return RunSoloPass(cluster(), tracer, workloads::tpch::NumQueries(),
                       [&](int i, core::Session* s) {
                         return workloads::tpch::RunQuery(i + 1, s, dir_);
                       });
  }

  double InputGenProbeMs() override { return TpchGenMs(kScaleFactor, seed_); }

 private:
  std::string run_dir_;
  std::string dir_;
  uint64_t seed_ = 0;
};

/// In-memory lineitem/orders through FromPandas into a two-key sort, a
/// high-cardinality groupby and a join: shuffle work, no xparquet.
class ShuffleSort : public Workload {
 public:
  static constexpr double kScaleFactor = 0.01;

  explicit ShuffleSort(std::string run_dir) : run_dir_(std::move(run_dir)) {}

  /// The sort is the slowest third of samples; p95 lies inside it.
  double tail_percentile() const override { return 95; }

  Config cluster() const override {
    Config c = ClusterConfig(256LL << 10, run_dir_);
    c.default_chunk_rows = 8192;
    return c;
  }

  Status Prepare(const std::string& dir, uint64_t seed) override {
    seed_ = seed;
    XORBITS_ASSIGN_OR_RETURN(io::tpch::Tables t,
                             io::tpch::Generate(kScaleFactor, seed));
    lineitem_ = std::move(t.lineitem);
    // The join's inputs are narrow so its output stays cheap to check.
    XORBITS_ASSIGN_OR_RETURN(
        line_keys_,
        lineitem_.Select({"l_orderkey", "l_extendedprice", "l_shipmode"}));
    XORBITS_ASSIGN_OR_RETURN(
        order_keys_,
        t.orders.Select({"o_orderkey", "o_orderpriority", "o_orderdate"}));
    oracle_.clear();
    for (int q = 0; q < kNumQueries; ++q) {
      core::Session session(ReferenceConfig(run_dir_));
      Result<DataFrame> r = Run(q, &session);
      if (!r.ok()) {
        return r.status().WithContext("oracle query " + std::to_string(q));
      }
      oracle_.push_back(Comparable(q, *r));
    }
    return Status::OK();
  }

  PassResult RunPass(Tracer* tracer) override {
    return RunSoloPass(cluster(), tracer, kNumQueries,
                       [this](int q, core::Session* s) { return Run(q, s); });
  }

  double InputGenProbeMs() override { return TpchGenMs(kScaleFactor, seed_); }

 protected:
  /// The sort is stable on both engines, so it must match row for row.
  bool OrderMatters(int query) const override { return query == kSort; }

 private:
  enum Query { kSort = 0, kGroupBy, kJoin, kNumQueries };

  Result<DataFrame> Run(int q, core::Session* s) const {
    switch (q) {
      case kSort: {
        XORBITS_ASSIGN_OR_RETURN(DataFrameRef li, FromPandas(s, lineitem_));
        XORBITS_ASSIGN_OR_RETURN(
            DataFrameRef sorted, li.SortValues({"l_returnflag", "l_orderkey"}));
        return sorted.Fetch();
      }
      case kGroupBy: {
        XORBITS_ASSIGN_OR_RETURN(DataFrameRef li, FromPandas(s, lineitem_));
        XORBITS_ASSIGN_OR_RETURN(
            DataFrameRef g,
            li.GroupByAgg({"l_orderkey"},
                          {{"l_extendedprice", AggFunc::kSum, "revenue"},
                           {"l_quantity", AggFunc::kSum, "qty"},
                           {"", AggFunc::kSize, "lines"}}));
        return g.Fetch();
      }
      default: {
        XORBITS_ASSIGN_OR_RETURN(DataFrameRef lk, FromPandas(s, line_keys_));
        XORBITS_ASSIGN_OR_RETURN(DataFrameRef o, FromPandas(s, order_keys_));
        dataframe::MergeOptions on;
        on.left_on = {"l_orderkey"};
        on.right_on = {"o_orderkey"};
        XORBITS_ASSIGN_OR_RETURN(DataFrameRef j, lk.Merge(o, on));
        return j.Fetch();
      }
    }
  }

  std::string run_dir_;
  uint64_t seed_ = 0;
  DataFrame lineitem_;
  DataFrame line_keys_;
  DataFrame order_keys_;
};

/// Two client threads on one SessionManager with the result cache on, each
/// running small Census / UC10 / PLAsTiCC pipelines. Every fresh query is
/// followed by a repeat of itself, which the cache serves whatever the
/// other client does. A new manager per pass starts the cache empty, so the
/// pass is the same work each time.
class TenantsMixed : public Workload {
 public:
  static constexpr int kClients = 2;
  static constexpr int kFreshPerClient = 3;
  static constexpr int64_t kCensusRows = 48000;
  static constexpr int64_t kTransactions = 32000;
  static constexpr int64_t kCustomers = 400;
  static constexpr int64_t kPlasticcRows = 32000;
  static constexpr int64_t kObjects = 200;

  explicit TenantsMixed(std::string run_dir) : run_dir_(std::move(run_dir)) {}

  int clients() const override { return kClients; }

  /// Fresh Census queries are the slowest sixth of thousands of samples;
  /// their top ten are host scheduling hiccups, so the tail stays at p95.
  double tail_percentile() const override { return 95; }

  Config cluster() const override {
    // About 6 subtasks per query: enough chunks to tile, and enough work
    // per thread handoff that host scheduling delays do not dominate.
    Config c = ClusterConfig(512LL << 10, run_dir_);
    // Both clients run at once and a third submission would queue; the
    // queue is deep and patient enough that nothing is shed.
    c.max_concurrent_sessions = kClients;
    c.admission_queue_depth = 8;
    c.admission_timeout_ms = 60000;
    c.enable_result_cache = true;
    c.result_cache_budget_bytes = 256LL << 20;
    return c;
  }

  Status Prepare(const std::string& dir, uint64_t seed) override {
    seed_ = seed;
    oracle_.clear();
    Config solo = cluster();
    solo.enable_result_cache = false;
    for (int q = 0; q < kClients * kFreshPerClient; ++q) {
      core::Session session(solo);
      Result<DataFrame> r = Run(q, &session);
      if (!r.ok()) {
        return r.status().WithContext("oracle query " + std::to_string(q));
      }
      oracle_.push_back(Comparable(q, *r));
    }
    return Status::OK();
  }

  PassResult RunPass(Tracer* tracer) override {
    PassResult pass;
    Config c = cluster();
    c.trace.sink = tracer;
    int bench_pid = 0;
    if (tracer != nullptr) bench_pid = tracer->RegisterProcess("perfbench", 0);
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    auto mgr = core::SessionManager::Create(c);
    if (!mgr.ok()) {
      QueryRecord rec;
      rec.status = mgr.status();
      pass.records.push_back(std::move(rec));
      return pass;
    }
    std::vector<std::vector<QueryRecord>> records(kClients);
    std::vector<CounterBag> bags(kClients);
    std::vector<std::thread> threads;
    for (int client = 0; client < kClients; ++client) {
      threads.emplace_back([&, client] {
        std::unique_ptr<core::Session> session = (*mgr)->CreateSession();
        for (int k = 0; k < kFreshPerClient; ++k) {
          const int q = client * kFreshPerClient + k;
          for (int rep = 0; rep < 2; ++rep) {  // fresh, then its repeat
            records[client].push_back(TimedCall(
                tracer, bench_pid, q, [&] { return Run(q, session.get()); }));
          }
        }
        bags[client].Add(session->metrics().Snapshot());
      });
    }
    for (std::thread& t : threads) t.join();
    for (int client = 0; client < kClients; ++client) {
      for (QueryRecord& r : records[client]) {
        pass.records.push_back(std::move(r));
      }
      pass.counters.Add(bags[client]);
    }
    pass.counters.Add((*mgr)->metrics().Snapshot());
    mgr->reset();
    pass.wall_s = SecondsSince(t0);
    pass.cpu_s = ProcessCpuSeconds() - cpu0;
    return pass;
  }

  double InputGenProbeMs() override {
    namespace p = workloads::pipelines;
    const auto t0 = Clock::now();
    int64_t rows = 0;
    for (int q = 0; q < kClients * kFreshPerClient; ++q) {
      const uint64_t s = QuerySeed(q);
      switch (Kind(q)) {
        case 0:
          rows += p::MakeCensus(kCensusRows, s).num_rows();
          break;
        case 1:
          rows += p::MakeCustomers(kCustomers, s).num_rows();
          rows += p::MakeTransactions(kTransactions, kCustomers, 1.6, s + 1)
                      .num_rows();
          break;
        default:
          rows += p::MakePlasticc(kPlasticcRows, kObjects, s).num_rows();
      }
    }
    return rows > 0 ? SecondsSince(t0) * 1e3 : 0.0;
  }

 private:
  /// Each client cycles through the three pipelines from its own offset.
  static int Kind(int q) {
    return (q / kFreshPerClient + q % kFreshPerClient) % 3;
  }
  uint64_t QuerySeed(int q) const { return seed_ * 1000 + 17 * q + 1; }

  Result<DataFrame> Run(int q, core::Session* s) const {
    namespace p = workloads::pipelines;
    const uint64_t seed = QuerySeed(q);
    switch (Kind(q)) {
      case 0:
        return p::Census(s, kCensusRows, seed);
      case 1:
        return p::TpcxAiUC10(s, kTransactions, kCustomers, seed);
      default:
        return p::Plasticc(s, kPlasticcRows, kObjects, seed);
    }
  }

  std::string run_dir_;
  uint64_t seed_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& run_dir) {
  if (name == "tpch_adhoc") return std::make_unique<TpchAdhoc>(run_dir);
  if (name == "shuffle_sort") return std::make_unique<ShuffleSort>(run_dir);
  if (name == "tenants_mixed") return std::make_unique<TenantsMixed>(run_dir);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from one traced pass

/// Operator family of a subtask, from the type name of its output op.
const char* OpFamily(const std::string& op) {
  auto has = [&](const char* s) { return op.find(s) != std::string::npos; };
  if (has("Read")) return "scan";
  if (has("Sort") || has("RangePartition")) return "sort";
  if (has("GroupBy") || has("DropDuplicates")) return "groupby";
  if (has("Merge")) return "join";
  return "eval";
}

int64_t ArgValue(const TraceEvent& e, const char* key) {
  for (const TraceArg& a : e.args) {
    if (a.numeric && a.key == key) {
      return std::strtoll(a.value.c_str(), nullptr, 10);
    }
  }
  return 0;
}

using LayerMetrics = std::map<std::string, double>;

LayerMetrics ComputeLayers(const Tracer& tracer, const CounterBag& m,
                           const GlobalStats& g) {
  const std::vector<TraceEvent> events = tracer.SnapshotEvents();
  double fetch_us = 0, materialize_us = 0, tile_us = 0, nested_us = 0;
  double pass_us = 0, push_us = 0, fetch_ex_us = 0, queue_wait_us = 0;
  int64_t yields = 0, chunks = 0, rewritten = 0, removed = 0;
  std::map<std::string, double> family_us = {
      {"scan", 0}, {"sort", 0}, {"groupby", 0}, {"join", 0}, {"eval", 0}};
  const std::string tile_prefix = trace::kSpanTilePrefix;
  const std::string pass_prefix = trace::kSpanPassPrefix;
  const std::string subtask_prefix = trace::kSpanSubtaskPrefix;
  std::vector<const TraceEvent*> tiles, partials;
  for (const TraceEvent& e : events) {
    if (e.phase != TraceEvent::Phase::kComplete) continue;
    const double wall = static_cast<double>(ArgValue(e, "wall_us"));
    if (e.name == kBenchSpan) {
      fetch_us += wall;
    } else if (e.name == trace::kSpanMaterialize) {
      materialize_us += wall;
    } else if (e.name.rfind(tile_prefix, 0) == 0) {
      tile_us += wall;
      yields += ArgValue(e, "yields");
      chunks += ArgValue(e, "chunks");
      tiles.push_back(&e);
    } else if (e.name == trace::kSpanExecutePartial) {
      partials.push_back(&e);
    } else if (e.name.rfind(pass_prefix, 0) == 0) {
      pass_us += wall;
      rewritten += ArgValue(e, "rewritten");
      removed += ArgValue(e, "removed");
    } else if (e.name == trace::kSpanExchangePush) {
      push_us += wall;
    } else if (e.name == trace::kSpanExchangeFetch) {
      fetch_ex_us += wall;
    } else if (e.name.rfind(subtask_prefix, 0) == 0) {
      family_us[OpFamily(e.name.substr(subtask_prefix.size()))] +=
          static_cast<double>(e.dur_us);
      queue_wait_us += static_cast<double>(ArgValue(e, "queue_wait_us"));
    }
  }
  // A partial execution a tile span waited on lies inside that span's
  // simulated interval (tile spans only have a duration when they yield).
  for (const TraceEvent* p : partials) {
    for (const TraceEvent* t : tiles) {
      if (p->pid == t->pid && t->dur_us > 0 && p->ts_us >= t->ts_us &&
          p->ts_us + p->dur_us <= t->ts_us + t->dur_us) {
        nested_us += static_cast<double>(ArgValue(*p, "wall_us"));
        break;
      }
    }
  }
  int64_t dispatch_us = 0, idle_us = 0, store_us = 0, transfer_us = 0;
  for (int pid : tracer.process_ids()) {
    dispatch_us += tracer.stage_total(pid, TraceStage::kDispatch);
    idle_us += tracer.stage_total(pid, TraceStage::kIdle);
    store_us += tracer.stage_total(pid, TraceStage::kStore);
    transfer_us += tracer.stage_total(pid, TraceStage::kTransfer);
  }
  auto ms = [](double us) { return us / 1e3; };
  auto count = [&](const char* name) {
    return static_cast<double>(m.Get(name));
  };
  const double hits = count("cache_hits");
  const double misses = count("cache_misses");
  LayerMetrics out;
  out["core.fetch_wall_ms"] = ms(fetch_us);
  out["core.materialize_wall_ms"] = ms(materialize_us);
  out["core.graph_build_ms"] = ms(fetch_us - materialize_us);
  out["core.admission_wait_ms"] =
      ms(count((std::string(trace::kHistSessionQueueWaitUs) + ".sum").c_str()));
  out["core.sessions_shed"] = count(trace::kGaugeSessionsShed);
  out["tiling.tile_self_ms"] = ms(tile_us - nested_us);
  out["tiling.yields"] = static_cast<double>(yields);
  out["tiling.chunks"] = static_cast<double>(chunks);
  out["optimizer.pass_ms"] = ms(pass_us);
  out["optimizer.nodes_rewritten"] = static_cast<double>(rewritten);
  out["optimizer.nodes_removed"] = static_cast<double>(removed);
  out["scheduler.subtasks"] = count("subtasks_executed");
  out["scheduler.queue_wait_ms"] = ms(queue_wait_us);
  out["scheduler.retries"] = count("subtasks_retried");
  out["scheduler.dispatch_sim_ms"] = ms(static_cast<double>(dispatch_us));
  out["scheduler.idle_sim_ms"] = ms(static_cast<double>(idle_us));
  for (const auto& [family, us] : family_us) {
    out["operators." + family + "_sim_ms"] = ms(us);
  }
  out["dataframe.kernel_cpu_ms"] = ms(count("kernel_cpu_us"));
  out["dataframe.bytes_materialized"] =
      static_cast<double>(g.bytes_materialized);
  out["io.source_bytes_read"] = count("source_bytes_read");
  out["io.lazy_columns_decoded"] = static_cast<double>(g.lazy_columns_decoded);
  out["services.bytes_stored"] = count("bytes_stored");
  out["services.bytes_transferred"] = count("bytes_transferred");
  out["services.bytes_spilled"] = count("bytes_spilled");
  out["services.store_sim_ms"] = ms(static_cast<double>(store_us));
  out["services.transfer_sim_ms"] = ms(static_cast<double>(transfer_us));
  out["services.shuffle_wire_bytes"] = static_cast<double>(g.wire_bytes);
  out["services.shuffle_memory_bytes"] = static_cast<double>(g.memory_bytes);
  out["services.shuffle_blocks"] = static_cast<double>(g.blocks_produced);
  out["services.exchange_push_ms"] = ms(push_us);
  out["services.exchange_fetch_ms"] = ms(fetch_ex_us);
  out["services.exchange_backpressure_ms"] =
      ms(static_cast<double>(g.backpressure_us));
  out["services.cache_hits"] = hits;
  out["services.cache_misses"] = misses;
  out["services.cache_hit_frac"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  out["services.cache_publishes"] = count("cache_publishes");
  out["services.cache_evictions"] = count("cache_evictions");
  out["common.buffer_cow_copies"] = static_cast<double>(g.cow_copies);
  out["common.chunk_copies_avoided"] = static_cast<double>(g.copies_avoided);
  return out;
}

/// Counts one traced pass must reproduce exactly on the next.
const char* const kExactCounts[] = {
    "io.source_bytes_read", "scheduler.subtasks", "services.cache_hits",
    "services.shuffle_wire_bytes", "services.bytes_spilled"};

/// Direct calls into single layers on TPC-H data written under `dir`:
/// xparquet read of every table, a two-key sort of lineitem, and a
/// serialize/deserialize round trip of lineitem. Medians of three.
Status RunProbes(const std::string& dir, uint64_t seed, LayerMetrics* out) {
  XORBITS_RETURN_NOT_OK(io::tpch::GenerateFiles(0.01, dir, seed));
  std::vector<fs::path> files;
  int64_t file_bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".xpq") {
      files.push_back(entry.path());
      file_bytes += static_cast<int64_t>(entry.file_size());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<double> read_ms, sort_ms, ser_ms;
  DataFrame lineitem;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (const fs::path& f : files) {
      XORBITS_ASSIGN_OR_RETURN(DataFrame df, io::ReadXpq(f.string()));
      if (f.stem() == "lineitem") lineitem = std::move(df);
    }
    read_ms.push_back(SecondsSince(t0) * 1e3);
  }
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    XORBITS_ASSIGN_OR_RETURN(
        DataFrame sorted,
        dataframe::SortValues(lineitem, {"l_returnflag", "l_orderkey"}));
    sort_ms.push_back(SecondsSince(t0) * 1e3);
    if (sorted.num_rows() != lineitem.num_rows()) {
      return Status::Invalid("sort probe lost rows");
    }
  }
  const services::ChunkDataPtr chunk = services::MakeChunk(lineitem);
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    XORBITS_ASSIGN_OR_RETURN(std::string buf, services::SerializeChunk(*chunk));
    XORBITS_ASSIGN_OR_RETURN(services::ChunkDataPtr back,
                             services::DeserializeChunk(buf));
    ser_ms.push_back(SecondsSince(t0) * 1e3);
    if (back->rows() != chunk->rows()) {
      return Status::Invalid("serialize probe lost rows");
    }
  }
  const double read = Median(read_ms);
  (*out)["dataframe.sort_probe_ms"] = Median(sort_ms);
  (*out)["io.xpq_read_probe_ms"] = read;
  (*out)["io.xpq_read_mb_per_s"] =
      read > 0 ? static_cast<double>(file_bytes) / 1e6 / (read / 1e3) : 0.0;
  (*out)["io.serialize_probe_ms"] = Median(ser_ms);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Main

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_run";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o->trace = value == "1";
    } else if (flag == "--workdir") {
      o->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

/// Timed passes and their verified outcomes. Rates, CPU and the median
/// latency are kept per pass and reported as medians over passes, so one
/// pass slowed by the host does not move the run's figure. The median
/// latency is taken per pass because a pass is a fixed mix of query
/// classes: with an even count (22 TPC-H queries) the pooled median falls
/// in the gap between the two middle classes, where it is set by their
/// extreme samples.
struct Tally {
  int64_t attempted = 0;
  int64_t correct = 0;
  int64_t passes = 0;
  double wall_s = 0;
  std::map<int, int64_t> failures;  // per query index
  std::vector<double> latencies_ms;
  std::vector<double> p50_ms;  // median query latency, per pass
  std::vector<double> qps;    // verified completions / wall, per pass
  std::vector<double> cpu_s;  // per pass
  std::vector<double> sim_s;  // per pass

  void Add(const Workload& w, const PassResult& pass) {
    int64_t ok = 0;
    std::vector<double> pass_ms;
    for (const QueryRecord& r : pass.records) {
      ++attempted;
      if (w.Verify(r)) {
        ++ok;
      } else if (failures[r.query]++ == 0) {  // report each query once
        std::printf("# query %d failed: %s\n", r.query,
                    r.status.ok() ? "result differs from the oracle"
                                  : r.status.ToString().c_str());
      }
      latencies_ms.push_back(r.latency_ms);
      pass_ms.push_back(r.latency_ms);
    }
    p50_ms.push_back(Median(std::move(pass_ms)));
    correct += ok;
    ++passes;
    wall_s += pass.wall_s;
    qps.push_back(pass.wall_s > 0 ? static_cast<double>(ok) / pass.wall_s
                                  : 0.0);
    cpu_s.push_back(pass.cpu_s);
    sim_s.push_back(static_cast<double>(pass.counters.Get("simulated_us")) /
                    1e6);
  }
};

/// Repeats passes until `seconds` of pass wall time, `min_passes` passes
/// and `min_samples` query latencies.
Tally RunTimed(Workload* w, double seconds, int min_passes,
               size_t min_samples = 0) {
  Tally t;
  while (t.passes < min_passes || t.wall_s < seconds ||
         t.latencies_ms.size() < min_samples) {
    t.Add(*w, w->RunPass(nullptr));
  }
  return t;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The result line: the last line of stdout.
void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
         value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// Unit of each per-layer metric.
const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_mb_per_s")) return "MB/s";
  if (name.find("bytes") != std::string::npos) return "bytes";
  if (ends("_frac")) return "ratio";
  return "count";
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  const std::string run_dir =
      (fs::absolute(opt.workdir) /
       (opt.workload + "-" + std::to_string(getpid())))
          .string();
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload, run_dir);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  // Topology: every thread that can run at once gets its own core.
  const Config cluster = w->cluster();
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  const int threads = ThreadsNeeded(cluster, w->clients());
  std::printf("# topology: %d client(s) + %d worker x %d bands x %d "
              "cpus_per_band (%d threads) on nproc %d\n",
              w->clients(), cluster.num_workers, cluster.bands_per_worker,
              cluster.cpus_per_band, threads, nproc);
  if (threads > nproc) {
    std::fprintf(stderr, "topology needs %d threads but nproc is %d\n",
                 threads, nproc);
    return 3;
  }

  // Setup, repeated: inputs, oracle and a verified warm-up pass, each time
  // in a fresh directory. setup_s is the median of at least kMinSetups
  // setups (and of as many as fit in kSetupBudgetS); the last one is kept.
  constexpr int kMinSetups = 5;
  constexpr double kSetupBudgetS = 3.0;
  constexpr int kMaxSetups = 25;
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  std::vector<double> setup_s;
  Tally warm;  // the warm-up passes of every setup
  std::string last_dir;
  double setup_total = 0;
  for (int i = 0; i == 0 || (!opt.trace && i < kMaxSetups &&
                             (i < kMinSetups || setup_total < kSetupBudgetS));
       ++i) {
    if (!last_dir.empty()) fs::remove_all(last_dir, ec);
    last_dir = run_dir + "/setup" + std::to_string(i);
    fs::create_directories(last_dir, ec);
    const auto t0 = Clock::now();
    Status st = w->Prepare(last_dir, opt.seed);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      fs::remove_all(run_dir, ec);
      return 1;
    }
    warm.Add(*w, w->RunPass(nullptr));
    setup_s.push_back(SecondsSince(t0));
    setup_total += setup_s.back();
  }

  int64_t attempted = 0, failed = 0;
  bool correct = warm.correct == warm.attempted;
  if (!opt.trace) {
    if (!ResetPeakRss()) {
      std::printf("# peak_rss_mb covers set-up too: the peak could not be "
                  "reset\n");
    }
    // Enough samples for ten above the tail percentile, so a slow run
    // reports the same percentile, inside the same query class, as a fast
    // one.
    const Tally t = RunTimed(w.get(), opt.seconds, 2,
                             TailSamples(w->tail_percentile()));
    attempted = t.attempted;
    failed = t.attempted - t.correct;
    correct = correct && failed == 0;
    std::vector<double> lat = t.latencies_ms;
    std::sort(lat.begin(), lat.end());
    const size_t tail_rank = PercentileRank(w->tail_percentile(), lat.size());
    std::printf("# %s: %lld passes, %lld queries in %.3f s; latency_tail_ms "
                "is p%g of %zu samples, %zu above it\n",
                opt.workload.c_str(), static_cast<long long>(t.passes),
                static_cast<long long>(t.attempted), t.wall_s,
                w->tail_percentile(), lat.size(), lat.size() - tail_rank);
    fs::remove_all(run_dir, ec);
    PrintJson(correct, attempted, failed,
              {{"queries_per_s", Median(t.qps), "1/s"},
               {"latency_p50_ms", Median(t.p50_ms), "ms"},
               {"latency_tail_ms", lat[tail_rank - 1], "ms"},
               {"sim_s", Median(t.sim_s), "s"},
               {"cpu_s", Median(t.cpu_s), "s"},
               {"peak_rss_mb", PeakRssMiB(), "MiB"},
               {"ok_frac",
                static_cast<double>(t.correct) /
                    static_cast<double>(std::max<int64_t>(t.attempted, 1)),
                "ratio"},
               {"setup_s", Median(setup_s), "s"}});
    return correct ? 0 : 1;
  }

  // Traced run: half the time untraced, half traced (a fresh Tracer per
  // pass), then the single-layer probes.
  const Tally plain = RunTimed(w.get(), opt.seconds / 2, 1);
  Tally traced;
  std::map<std::string, std::vector<double>> per_pass;
  while (traced.passes < 2 || traced.wall_s < opt.seconds / 2) {
    Tracer tracer;
    const GlobalStats before = GlobalStats::Now();
    PassResult pass = w->RunPass(&tracer);
    const GlobalStats delta = GlobalStats::Now().Minus(before);
    for (const auto& [name, v] : ComputeLayers(tracer, pass.counters, delta)) {
      per_pass[name].push_back(v);
    }
    traced.Add(*w, pass);
  }
  attempted = plain.attempted + traced.attempted;
  failed = attempted - plain.correct - traced.correct;
  correct = correct && failed == 0;

  LayerMetrics layers;
  for (const auto& [name, values] : per_pass) layers[name] = Median(values);
  for (const char* name : kExactCounts) {
    const std::vector<double>& v = per_pass[name];
    const bool exact = std::all_of(v.begin(), v.end(),
                                   [&](double x) { return x == v.front(); });
    std::printf("# %s repeats exactly over %zu traced passes: %s (%.17g)\n",
                name, v.size(), exact ? "yes" : "NO", v.front());
  }
  layers["workloads.input_gen_ms"] = w->InputGenProbeMs();
  layers["trace.overhead_frac"] =
      Median(traced.qps) > 0 ? Median(plain.qps) / Median(traced.qps) - 1.0
                             : 0.0;
  Status probes = RunProbes(run_dir + "/probe", opt.seed, &layers);
  fs::remove_all(run_dir, ec);
  if (!probes.ok()) {
    std::fprintf(stderr, "probe failed: %s\n", probes.ToString().c_str());
    return 1;
  }
  std::vector<Metric> out;
  for (const auto& [name, v] : layers) {
    out.push_back({name, v, LayerUnit(name)});
  }
  PrintJson(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xorbits::perfbench

int main(int argc, char** argv) { return xorbits::perfbench::Main(argc, argv); }
