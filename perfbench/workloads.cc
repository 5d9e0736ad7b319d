// perfbench workloads: the measured body of each benchmark workload.
//
// perfbench/run.py starts this binary in a fresh process per workload step
// and reads the one JSON object it prints as the last line of stdout. The
// binary only calls the repository's public module APIs; every timing is
// taken here, around those calls, or read from the counters and histograms
// the program already exports. Subcommands:
//
//   train_fold      --seed --seconds --min_reps --trace
//   experiment_map  --seed --seconds --min_reps --trace
//   prepare_serve   --seed --dir        build a paper-shape AMSMODEL1
//                                       artifact plus its request blocks
//   serve           --dir --port --admin_port --seconds
//                                       open-loop load against net_server_main
//                                       over kNetworkRates
//   serve_inproc    --seed --seconds --trace
//                                       open loop of in-process
//                                       InferenceServer::Score calls
//   env                                 resolved knobs and build facts
//
// Rates, limits, deadlines and set-up counts are the constants below; each
// result reports the ones it used.
//
// The binary refuses to run (exit 3) when it was built without
// optimization or under a sanitizer: numbers from such builds are not
// recorded.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "ams/ams_model.h"
#include "data/cv.h"
#include "data/features.h"
#include "data/generator.h"
#include "gnn/gat.h"
#include "graph/company_graph.h"
#include "la/gemm_kernels.h"
#include "la/matrix.h"
#include "la/pool.h"
#include "metrics/metrics.h"
#include "models/baselines.h"
#include "models/experiment.h"
#include "nn/dense.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "par/thread_pool.h"
#include "serve/artifact.h"
#include "serve/framing.h"
#include "serve/net_server.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/string_util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace ams;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups timed at each of several points of a run; setup_s is the mean of
/// the points' medians. A shared host runs in fast and slow spells of about
/// a second, so set-ups timed back to back all fall in one spell, and a
/// median over them jumps between the two speeds from run to run.
/// train_fold times them before the first repetition and after each,
/// serve_inproc before and after its measured open loop.
constexpr int kTrainFoldSetups = 17;
constexpr int kServeInprocSetups = 3;
/// The latency limit: p99 <= kLimitMs. A request misses it when it is shed,
/// hits its deadline, fails, or answers late.
constexpr double kLimitMs = 10.0;
/// serve_inproc's open-loop rate (req/s) and its caller threads, which take
/// alternate requests so a slow response never delays the next send.
constexpr double kServeRate = 100.0;
constexpr int kServeCallers = 2;
/// serve_inproc's callers sleep until this long before a request is due and
/// spin the rest, so a late timer wake-up on a busy host does not show as
/// latency (each caller spins at most 2 ms of its 20 ms interval).
constexpr auto kServeSpin = std::chrono::milliseconds(2);
/// The open-loop ladder against net_server_main (req/s). The 3 ms deadline
/// leaves room for the batch window and one forward pass, so a request
/// picked up just before its deadline can still meet the limit.
constexpr double kNetworkRates[] = {100, 200, 400, 800, 1600, 3200};
constexpr uint32_t kNetworkDeadlineMs = 3;
constexpr int kConnections = 2;

double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(index, v.size() - 1)];
}

/// The highest nearest-rank percentile, at most `q`, that leaves at least
/// ten samples above it (the smallest sample when there are ten or fewer).
/// Returns {value, the percentile it is}.
std::pair<double, double> TailPercentile(std::vector<double> v, double q) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double rank =
      std::max(1.0, std::min(std::ceil(q * n), n - 10.0));
  return {v[static_cast<size_t>(rank) - 1], rank / n};
}

/// VmHWM of this process in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// FNV-1a over the IEEE-754 bit patterns: equal hashes mean bit-equal
/// predictions.
uint64_t HashDoubles(uint64_t h, const std::vector<double>& values) {
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// Flat JSON object builder; values are numbers, strings or raw JSON.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    return Raw(key, obs::JsonNumber(v));
  }
  Json& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, obs::JsonEscape(v));
  }
  Json& Nums(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i > 0 ? "," : "") + obs::JsonNumber(values[i]);
    }
    return Raw(key, out + "]");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + obs::JsonEscape(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

obs::MetricsRegistry& Registry() { return obs::MetricsRegistry::Get(); }

uint64_t CounterValue(const std::string& name) {
  return Registry().GetCounter(name).value();
}

/// Count and sum of a "<span>/ms" histogram, read from a registry
/// snapshot (0/0 when the span never ran).
std::pair<uint64_t, double> SpanTotals(const std::string& histogram) {
  for (const auto& h : Registry().Snapshot().histograms) {
    if (h.name == histogram) return {h.count, h.sum};
  }
  return {0, 0.0};
}

/// Durations (ms) of every recorded span named `name` in the trace buffer.
std::vector<double> SpanDurationsMs(const char* name) {
  std::vector<double> out;
  for (const obs::SpanRecord& span : obs::TraceBuffer::Get().Snapshot()) {
    if (span.name != nullptr && std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.duration_us) / 1000.0);
    }
  }
  return out;
}

/// Durations (ms) of the spans recorded into one "<span>/ms" histogram while
/// the sampler runs, taken without enabling the trace buffer: a thread polls
/// the histogram's count and sum every two milliseconds and, once the count
/// has moved and then held for one poll, records the change in sum over the
/// change in count. Spans that end further apart than one poll (AMS epochs
/// take tens of milliseconds) are each recorded exactly.
class SpanSampler {
 public:
  explicit SpanSampler(const std::string& histogram)
      : histogram_(Registry().GetHistogram(histogram)),
        thread_([this] { Poll(); }) {}
  ~SpanSampler() { Stop(); }

  std::vector<double> Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_release);
      thread_.join();
    }
    return samples_;
  }

 private:
  void Poll() {
    uint64_t count = histogram_.count();
    double sum = histogram_.sum();
    uint64_t seen = count;
    for (;;) {
      const bool stopping = stop_.load(std::memory_order_acquire);
      const uint64_t now = histogram_.count();
      // Take the sum once the count has held for one poll, so the
      // observation that moved the count has also reached the sum.
      if (now != count && (now == seen || stopping)) {
        const double now_sum = histogram_.sum();
        const double each = (now_sum - sum) / static_cast<double>(now - count);
        samples_.insert(samples_.end(), now - count, each);
        count = now;
        sum = now_sum;
      }
      seen = now;
      if (stopping) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  obs::Histogram& histogram_;
  std::atomic<bool> stop_{false};
  std::vector<double> samples_;
  std::thread thread_;
};

uint64_t PoolAllocs() {
  const la::BufferPool::Stats stats = la::BufferPool::Global().GetStats();
  return stats.hits + stats.misses;
}

double ParBusyUs() {
  double total = 0.0;
  for (const auto& c : Registry().Snapshot().counters) {
    if (c.base == "par/worker_busy_us") total += static_cast<double>(c.value);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Inputs shared by the workloads.

struct FoldInputs {
  data::Panel panel;
  data::Dataset train;
  data::Dataset valid;
  data::Dataset test;
  int last_train_quarter = 0;
  std::unique_ptr<graph::CompanyGraph> graph;
};

struct SetupTimes {
  double generate_ms = 0.0;
  double features_ms = 0.0;
  double graph_ms = 0.0;
  double total_s() const {
    return (generate_ms + features_ms + graph_ms) / 1000.0;
  }
};

data::Panel Generate(data::DatasetProfile profile, uint64_t seed) {
  AMS_TRACE_SPAN("perfbench/data.generate");
  auto panel = data::GenerateMarket(data::GeneratorConfig::Defaults(profile,
                                                                    seed));
  panel.status().Abort("generate market");
  return panel.MoveValue();
}

/// Features and correlation graph of the panel's last CV fold (the
/// quickstart protocol). `panel` must already be set.
void BuildLastFold(FoldInputs* in, SetupTimes* times) {
  const data::CvOptions cv = data::DefaultCvOptions(in->panel.profile);
  auto folds = data::TimeSeriesCvFolds(in->panel.num_quarters, cv);
  folds.status().Abort("cv folds");
  const data::CvFold fold = folds.ValueOrDie().back();
  const auto t0 = Clock::now();
  {
    AMS_TRACE_SPAN("perfbench/data.features");
    data::FeatureOptions options;
    options.lag_k = cv.lag_k;
    data::FeatureBuilder builder(&in->panel, options);
    in->train = builder.Build(fold.train_quarters).MoveValue();
    in->valid = builder.Build({fold.valid_quarter}).MoveValue();
    in->test = builder.Build({fold.test_quarter}).MoveValue();
    const data::Standardizer standardizer = data::Standardizer::Fit(in->train);
    standardizer.Apply(&in->train);
    standardizer.Apply(&in->valid);
    standardizer.Apply(&in->test);
  }
  const auto t1 = Clock::now();
  in->last_train_quarter = fold.valid_quarter - 1;
  {
    AMS_TRACE_SPAN("perfbench/graph.build");
    graph::CorrelationGraphOptions options;
    options.top_k = 5;
    auto graph = graph::CompanyGraph::BuildFromRevenue(
        in->panel.RevenueHistories(in->last_train_quarter), options);
    graph.status().Abort("build graph");
    in->graph = std::make_unique<graph::CompanyGraph>(graph.MoveValue());
  }
  const auto t2 = Clock::now();
  times->features_ms = Ms(t0, t1);
  times->graph_ms = Ms(t1, t2);
}

/// Full set-up of the fold: generate + features + graph.
FoldInputs SetUpFold(data::DatasetProfile profile, uint64_t seed,
                     SetupTimes* times) {
  FoldInputs in;
  const auto t0 = Clock::now();
  in.panel = Generate(profile, seed);
  times->generate_ms = Ms(t0, Clock::now());
  BuildLastFold(&in, times);
  return in;
}

/// Median time of each set-up layer.
Json SetupLayersJson(const std::vector<SetupTimes>& setups) {
  std::vector<double> generate, features, graph;
  for (const SetupTimes& s : setups) {
    generate.push_back(s.generate_ms);
    features.push_back(s.features_ms);
    graph.push_back(s.graph_ms);
  }
  Json j;
  j.Num("data.generate_ms", Median(generate))
      .Num("data.features_ms", Median(features))
      .Num("graph.build_ms", Median(graph));
  return j;
}

/// One request block (num_companies x num_features) as the single-quarter
/// Dataset AmsModel::Predict consumes; `quarters` blocks stacked.
data::Dataset BlocksDataset(const std::vector<const la::Matrix*>& blocks) {
  const int rows = blocks.front()->rows();
  const int cols = blocks.front()->cols();
  data::Dataset dataset;
  dataset.x = la::Matrix(rows * static_cast<int>(blocks.size()), cols);
  dataset.y.assign(static_cast<size_t>(dataset.x.rows()), 0.0);
  dataset.meta.resize(static_cast<size_t>(dataset.x.rows()));
  for (size_t b = 0; b < blocks.size(); ++b) {
    std::memcpy(dataset.x.row_data(static_cast<int>(b) * rows),
                blocks[b]->data(),
                static_cast<size_t>(rows) * cols * sizeof(double));
    for (int i = 0; i < rows; ++i) {
      data::SampleMeta& meta = dataset.meta[b * rows + i];
      meta.company = i;
      meta.quarter = static_cast<int>(b);
    }
  }
  return dataset;
}

/// Per-quarter blocks of a dataset laid out by FeatureBuilder.
std::vector<la::Matrix> QuarterBlocks(const data::Dataset& dataset) {
  std::vector<la::Matrix> blocks;
  for (const auto& [quarter, rows] : dataset.RowsByQuarter()) {
    la::Matrix block(static_cast<int>(rows.size()), dataset.num_features());
    for (size_t i = 0; i < rows.size(); ++i) {
      std::memcpy(block.row_data(static_cast<int>(i)),
                  dataset.x.row_data(rows[i]),
                  dataset.num_features() * sizeof(double));
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

// ---------------------------------------------------------------------------
// Per-layer replays, run only in traced mode.

/// Median time (ms) of `fn` over `reps` calls after one warm-up call.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  fn();
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(Ms(t0, Clock::now()));
  }
  return Median(times);
}

/// Replay of one AMS training epoch at the fitted shapes (10 train blocks of
/// 71 x 48, default AmsConfig widths), built from the public nn / gnn /
/// optim API: forward over every block, backward, clip + Adam step, then
/// the evaluation forward of the early-stopping check.
Json TensorReplay(const la::Matrix& mask, uint64_t seed) {
  const int n = mask.rows();
  const int f = 48;
  const int blocks = 10;
  core::AmsConfig config;
  Rng rng(seed);
  std::vector<nn::Dense> node_transform;
  int width = f;
  for (int out : config.node_transform_layers) {
    node_transform.emplace_back(width, out, nn::Activation::kRelu, &rng);
    width = out;
  }
  gnn::GatNetwork gat(width, config.gat, &rng);
  nn::Mlp generator(gat.out_features(), config.generator_hidden, f + 1,
                    nn::Activation::kRelu, &rng, config.dropout);
  std::vector<tensor::Tensor> params;
  for (const nn::Dense& layer : node_transform) {
    for (const auto& p : layer.Parameters()) params.push_back(p);
  }
  for (const auto& p : gat.Parameters()) params.push_back(p);
  for (const auto& p : generator.Parameters()) params.push_back(p);
  optim::Adam adam(params, config.learning_rate);

  std::vector<tensor::Tensor> xs, xas, ys;
  for (int b = 0; b < blocks; ++b) {
    la::Matrix x(n, f), xa(n, f + 1), y(n, 1);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < f; ++c) x(r, c) = xa(r, c) = rng.Normal();
      xa(r, f) = 1.0;
      y(r, 0) = rng.Normal(0.0, 0.1);
    }
    xs.push_back(tensor::Tensor::Constant(x));
    xas.push_back(tensor::Tensor::Constant(xa));
    ys.push_back(tensor::Tensor::Constant(y));
  }
  Rng dropout_rng(seed ^ 0x5bd1e995ULL);
  auto master = [&](const tensor::Tensor& x, bool training) {
    tensor::Tensor h = x;
    for (const nn::Dense& layer : node_transform) {
      h = tensor::Dropout(layer.Forward(h), config.dropout, training,
                          &dropout_rng);
    }
    h = gat.Forward(h, mask, training, &dropout_rng);
    return generator.Forward(h, training, &dropout_rng);
  };
  auto loss = [&](int count, bool training) {
    tensor::Tensor total = tensor::Tensor::Constant(la::Matrix::Zeros(1, 1));
    for (int b = 0; b < count; ++b) {
      tensor::Tensor coeffs = master(xs[b], training);
      tensor::Tensor err =
          tensor::Sub(tensor::RowDot(xas[b], coeffs), ys[b]);
      total = tensor::Add(total, tensor::SumSquares(err));
    }
    return total;
  };

  const int reps = 15;
  std::vector<double> forward, backward, step, eval;
  for (int i = 0; i <= reps; ++i) {
    adam.ZeroGrad();
    const auto t0 = Clock::now();
    tensor::Tensor l = loss(blocks, /*training=*/true);
    const auto t1 = Clock::now();
    tensor::Backward(l);
    const auto t2 = Clock::now();
    adam.ClipGradNorm(config.grad_clip);
    adam.Step();
    const auto t3 = Clock::now();
    loss(1, /*training=*/false);
    const auto t4 = Clock::now();
    if (i == 0) continue;  // warm-up
    forward.push_back(Ms(t0, t1));
    backward.push_back(Ms(t1, t2));
    step.push_back(Ms(t2, t3));
    eval.push_back(Ms(t3, t4));
  }
  Json j;
  j.Num("tensor.forward_ms", Median(forward))
      .Num("tensor.backward_ms", Median(backward))
      .Num("optim.step_ms", Median(step))
      .Num("tensor.eval_forward_ms", Median(eval));
  return j;
}

/// The dominant paper-shape GEMM: a 71 x 48 block times a 48 x 48 weight.
double MatmulUs(uint64_t seed) {
  Rng rng(seed);
  la::Matrix a(71, 48), b(48, 48);
  for (int i = 0; i < a.rows(); ++i)
    for (int k = 0; k < a.cols(); ++k) a(i, k) = rng.Normal();
  for (int i = 0; i < b.rows(); ++i)
    for (int k = 0; k < b.cols(); ++k) b(i, k) = rng.Normal();
  double sink = 0.0;
  const int inner = 200;
  const double ms = MedianMs(25, [&] {
    for (int i = 0; i < inner; ++i) sink += a.MatMul(b)(0, 0);
  });
  if (sink == 42.0) std::fprintf(stderr, " ");
  return 1000.0 * ms / inner;
}

/// Predict, in-process Score and framing costs of one paper-shape model.
Json ServingReplay(const core::AmsModel& model,
                   const std::vector<la::Matrix>& blocks) {
  std::vector<const la::Matrix*> one = {&blocks[0]};
  std::vector<const la::Matrix*> eight;
  for (int i = 0; i < 8; ++i) eight.push_back(&blocks[i % blocks.size()]);
  const data::Dataset ds1 = BlocksDataset(one);
  const data::Dataset ds8 = BlocksDataset(eight);
  Json j;
  j.Num("ams.predict_1q_ms",
        MedianMs(40, [&] { model.Predict(ds1).status().Abort("predict"); }))
      .Num("ams.predict_8q_ms",
           MedianMs(15, [&] { model.Predict(ds8).status().Abort("predict"); }));

  {
    serve::InferenceServer server(serve::ServerOptions::FromEnv());
    auto state = model.ExportState();
    state.status().Abort("export");
    server.LoadModel(core::AmsModel::FromState(state.ValueOrDie()).MoveValue())
        .Abort("load model");
    j.Num("serve.inproc_score_ms", MedianMs(40, [&] {
            server.Score(blocks[0]).status().Abort("score");
          }));
  }
  const int inner = 50;
  std::string wire;
  const double encode_ms = MedianMs(15, [&] {
    for (int i = 0; i < inner; ++i) {
      wire = serve::EncodeScoreRequest(static_cast<uint64_t>(i + 1), 0,
                                       blocks[0]);
    }
  });
  const std::string_view body(wire.data() + 4, wire.size() - 4);
  const double decode_ms = MedianMs(15, [&] {
    for (int i = 0; i < inner; ++i) {
      serve::DecodeFrame(body).status().Abort("decode");
    }
  });
  j.Num("serve.frame_encode_us", 1000.0 * encode_ms / inner)
      .Num("serve.frame_decode_us", 1000.0 * decode_ms / inner);
  return j;
}

// ---------------------------------------------------------------------------
// train_fold: the quickstart protocol on the txn panel's last fold.

/// Epoch count of AMS in this workload: the paper-default model with early
/// stopping disabled, so the fit does the same work for every seed.
constexpr int kTrainFoldEpochs = 170;

struct ModelEval {
  std::string name;
  double ba = 0.0;
  double sr = 0.0;
};

int TrainFold(uint64_t seed, double seconds, size_t min_reps, bool trace) {
  std::vector<SetupTimes> setup_times;
  std::vector<double> setup_point_s;
  // Times kTrainFoldSetups set-ups; the last one's inputs go to `keep`.
  auto time_setups = [&](FoldInputs* keep) {
    std::vector<double> totals;
    for (int i = 0; i < kTrainFoldSetups; ++i) {
      SetupTimes t;
      FoldInputs fresh =
          SetUpFold(data::DatasetProfile::kTransactionAmount, seed, &t);
      if (keep != nullptr) *keep = std::move(fresh);
      setup_times.push_back(t);
      totals.push_back(t.total_s());
    }
    setup_point_s.push_back(Median(totals));
  };
  FoldInputs in;
  time_setups(&in);

  models::FitContext context;
  context.train = &in.train;
  context.valid = &in.valid;
  context.panel = &in.panel;
  context.last_train_quarter = in.last_train_quarter;
  context.seed = seed;

  std::vector<double> walls, ams_fit_s, linear_ms, gbdt_ms, epoch_mean_ms;
  std::vector<std::string> hashes;
  std::vector<ModelEval> evals;
  uint64_t epochs = 0, allocs = 0, splits = 0;
  std::unique_ptr<core::AmsModel> last_ams;
  // One latency sample per AMS epoch of every repetition.
  SpanSampler epoch_sampler("ams/train/epoch/ms");
  const obs::Histogram& epoch_histogram =
      Registry().GetHistogram("ams/train/epoch/ms");
  const auto start = Clock::now();
  while (walls.size() < min_reps ||
         Ms(start, Clock::now()) / 1000.0 + walls.back() <= seconds) {
    const uint64_t epochs0 = CounterValue("ams/train/epochs");
    const uint64_t allocs0 = PoolAllocs();
    const uint64_t splits0 = CounterValue("gbdt/splits_evaluated");
    const uint64_t epoch_count0 = epoch_histogram.count();
    const double epoch_sum0 = epoch_histogram.sum();
    const auto t0 = Clock::now();

    // AMS with paper defaults, seeded the way models::AmsRegressor seeds
    // its single member, on the graph built at set-up.
    core::AmsConfig config;
    config.max_epochs = kTrainFoldEpochs;
    config.patience = kTrainFoldEpochs;
    config.seed = Rng(seed).NextU64();
    auto ams_model = std::make_unique<core::AmsModel>(config);
    {
      AMS_TRACE_SPAN("perfbench/ams.fit");
      ams_model->Fit(in.train, in.valid, *in.graph).Abort("fit AMS");
    }
    const auto t1 = Clock::now();

    linear::LinearOptions ridge_options;
    ridge_options.alpha = 0.1;
    ridge_options.l1_ratio = 0.0;
    models::LinearRegressor ridge("Ridge", ridge_options);
    {
      AMS_TRACE_SPAN("perfbench/linear.fit");
      ridge.Fit(context).Abort("fit Ridge");
    }
    const auto t2 = Clock::now();

    gbdt::GbdtOptions gbdt_options;
    gbdt_options.early_stopping_rounds = 20;
    gbdt_options.seed = seed;
    models::XgboostRegressor xgb(gbdt_options);
    {
      AMS_TRACE_SPAN("perfbench/gbdt.fit");
      xgb.Fit(context).Abort("fit XGBoost");
    }
    const auto t3 = Clock::now();

    std::vector<ModelEval> rep_evals;
    uint64_t hash = kFnvBasis;
    auto evaluate = [&](const std::string& name,
                        const std::vector<double>& pred) {
      auto eval = metrics::Evaluate(in.test, pred);
      eval.status().Abort("evaluate");
      rep_evals.push_back({name, eval.ValueOrDie().ba, eval.ValueOrDie().sr});
      hash = HashDoubles(hash, pred);
    };
    {
      AMS_TRACE_SPAN("perfbench/predict_evaluate");
      evaluate("AMS", ams_model->Predict(in.test).MoveValue());
      evaluate("Ridge", ridge.PredictNorm(in.test).MoveValue());
      evaluate("XGBoost", xgb.PredictNorm(in.test).MoveValue());
    }
    const auto t4 = Clock::now();

    walls.push_back(Ms(t0, t4) / 1000.0);
    ams_fit_s.push_back(Ms(t0, t1) / 1000.0);
    linear_ms.push_back(Ms(t1, t2));
    gbdt_ms.push_back(Ms(t2, t3));
    hashes.push_back(Hex(hash));
    evals = rep_evals;
    epochs = CounterValue("ams/train/epochs") - epochs0;
    allocs = PoolAllocs() - allocs0;
    splits = CounterValue("gbdt/splits_evaluated") - splits0;
    epoch_mean_ms.push_back(
        (epoch_histogram.sum() - epoch_sum0) /
        static_cast<double>(epoch_histogram.count() - epoch_count0));
    last_ams = std::move(ams_model);
    time_setups(nullptr);
  }
  const std::vector<double> epoch_ms = epoch_sampler.Stop();
  const auto [epoch_tail_ms, epoch_tail_q] = TailPercentile(epoch_ms, 0.99);

  Json out = SetupLayersJson(setup_times);
  out.Str("workload", "train_fold")
      .Nums("setup_s", setup_point_s)
      .Nums("wall_s", walls)
      .Num("peak_rss_mb", PeakRssMb())
      .Int("operations_per_rep", 3)
      .Int("epoch_samples", static_cast<int64_t>(epoch_ms.size()))
      .Nums("epoch_mean_ms", epoch_mean_ms)
      .Num("epoch_ms_tail", epoch_tail_ms)
      .Num("epoch_tail_q", epoch_tail_q);
  std::string hash_list = "[";
  for (size_t i = 0; i < hashes.size(); ++i) {
    hash_list += (i > 0 ? "," : "") + obs::JsonEscape(hashes[i]);
  }
  out.Raw("hashes", hash_list + "]");
  Json models;
  for (const ModelEval& e : evals) {
    models.Raw(e.name, Json().Num("ba", e.ba).Num("sr", e.sr).str());
  }
  out.Raw("models", models.str());

  Json layers;
  const auto [epoch_count, epoch_sum] = SpanTotals("ams/train/epoch/ms");
  layers.Num("ams.fit_s", Median(ams_fit_s))
      .Int("ams.epochs", static_cast<int64_t>(epochs))
      .Num("ams.epoch_ms", epoch_count > 0 ? epoch_sum / epoch_count : 0.0)
      .Num("la.allocs_per_epoch",
           epochs > 0 ? static_cast<double>(allocs) / epochs : 0.0)
      .Num("linear.fit_ms", Median(linear_ms))
      .Num("gbdt.fit_ms", Median(gbdt_ms))
      .Int("gbdt.splits", static_cast<int64_t>(splits));
  if (trace) {
    const std::vector<double> epoch_spans =
        SpanDurationsMs("ams/train/epoch");
    if (!epoch_spans.empty()) layers.Num("ams.epoch_ms", Median(epoch_spans));
    layers.Raw("replay", TensorReplay(in.graph->AttentionMask(), seed).str())
        .Num("la.matmul_us", MatmulUs(seed))
        .Raw("serving",
             ServingReplay(*last_ams, QuarterBlocks(in.valid)).str());
  }
  out.Raw("layers", layers.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// experiment_map: the Table I protocol on the map panel, hpo_trials = 1.

/// Search seed of experiment_map (the repository's default seed).
constexpr uint64_t kExperimentSearchSeed = 42;

int ExperimentMap(uint64_t seed, double seconds, size_t min_reps, bool trace) {
  // The experiment builds its own features and graphs inside the timed
  // call, so the panel is all there is to set up.
  const data::Panel panel = Generate(data::DatasetProfile::kMapQuery, seed);

  models::ExperimentConfig config;
  config.profile = data::DatasetProfile::kMapQuery;
  // The search seed is fixed, so every --seed draws the same model
  // configurations and the work done depends on the data alone.
  config.seed = kExperimentSearchSeed;
  config.hpo_trials = 1;

  const int pool_size = par::DefaultPool().parallelism();
  std::vector<double> walls, utilization;
  std::vector<std::string> fingerprints;
  models::ExperimentResult last;
  const auto start = Clock::now();
  while (walls.size() < min_reps ||
         Ms(start, Clock::now()) / 1000.0 + walls.back() <= seconds) {
    const double busy0 = ParBusyUs();
    const auto t0 = Clock::now();
    auto result = [&] {
      AMS_TRACE_SPAN("perfbench/experiment");
      return models::RunExperimentOnPanel(panel, config);
    }();
    result.status().Abort("run experiment");
    const double wall_ms = Ms(t0, Clock::now());
    walls.push_back(wall_ms / 1000.0);
    utilization.push_back((ParBusyUs() - busy0) /
                          (1000.0 * wall_ms * pool_size));
    last = result.MoveValue();
    uint64_t hash = kFnvBasis;
    for (const models::ModelOutcome& m : last.models) {
      for (const models::FoldOutcome& fold : m.folds) {
        hash = HashDoubles(hash, fold.predicted_ur);
      }
    }
    fingerprints.push_back(Hex(hash));
  }

  Json out;
  int operations = 0;
  Json models;
  for (const models::ModelOutcome& m : last.models) {
    models.Raw(m.name,
               Json().Num("ba", m.MeanBa()).Num("sr", m.MeanSr()).str());
    operations += static_cast<int>(m.folds.size());
  }
  std::string hash_list = "[";
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    hash_list += (i > 0 ? "," : "") + obs::JsonEscape(fingerprints[i]);
  }
  out.Str("workload", "experiment_map")
      .Nums("wall_s", walls)
      .Num("peak_rss_mb", PeakRssMb())
      .Int("operations_per_rep", operations)
      .Raw("hashes", hash_list + "]")
      .Raw("models", models.str());

  // The par, HPO and nn layers of the experiment; trial durations come from
  // the trace buffer, so only a traced run reports them.
  Json layers;
  const auto [nn_count, nn_sum] = SpanTotals("nn/train/epoch/ms");
  layers.Num("par.utilization", Median(utilization))
      .Num("nn.epoch_ms", nn_count > 0 ? nn_sum / nn_count : 0.0);
  if (trace) {
    const std::vector<double> trials = SpanDurationsMs("hpo/trial");
    layers.Num("models.hpo_trial_ms_p50", Median(trials))
        .Num("models.hpo_trial_ms_max", Percentile(trials, 1.0));
  }
  out.Raw("layers", layers.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Serving: artifact preparation and the open-loop load generator.

/// Epochs the serving artifact is trained for. Serving cost depends on the
/// architecture and shape, not on how converged the weights are.
constexpr int kArtifactEpochs = 10;

Status WriteBlocks(const std::string& path,
                   const std::vector<la::Matrix>& blocks) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const int32_t header[3] = {static_cast<int32_t>(blocks.size()),
                             blocks.front().rows(), blocks.front().cols()};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  for (const la::Matrix& b : blocks) {
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(sizeof(double)) * b.rows() *
                  b.cols());
  }
  return out.good() ? Status::OK() : Status::IoError("write " + path);
}

Result<std::vector<la::Matrix>> ReadBlocks(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  int32_t header[3] = {0, 0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in || header[0] <= 0 || header[0] > 4096 || header[1] <= 0 ||
      header[1] > 4096 || header[2] <= 0 || header[2] > 4096) {
    return Status::IoError("bad blocks file " + path);
  }
  std::vector<la::Matrix> blocks;
  for (int i = 0; i < header[0]; ++i) {
    la::Matrix b(header[1], header[2]);
    in.read(reinterpret_cast<char*>(b.data()),
            static_cast<std::streamsize>(sizeof(double)) * b.rows() *
                b.cols());
    blocks.push_back(std::move(b));
  }
  if (!in) return Status::IoError("short blocks file " + path);
  return blocks;
}

/// The serving model: default AmsConfig architecture, briefly trained.
core::AmsConfig ArtifactConfig(uint64_t seed) {
  core::AmsConfig config;
  config.max_epochs = kArtifactEpochs;
  config.patience = kArtifactEpochs;
  config.seed = seed;
  return config;
}

int PrepareServe(uint64_t seed, const std::string& dir) {
  SetupTimes times;
  FoldInputs in =
      SetUpFold(data::DatasetProfile::kTransactionAmount, seed, &times);
  core::AmsModel model(ArtifactConfig(seed));
  model.Fit(in.train, in.valid, *in.graph).Abort("fit artifact model");
  serve::SaveAmsArtifact(dir + "/model.ams", model).Abort("save artifact");
  // Request blocks: every quarter block of the fold's train and test sets,
  // in the model's standardized feature space.
  std::vector<la::Matrix> blocks = QuarterBlocks(in.train);
  for (la::Matrix& b : QuarterBlocks(in.test)) blocks.push_back(std::move(b));
  WriteBlocks(dir + "/blocks.bin", blocks).Abort("write blocks");
  Json out;
  out.Int("rows", model.num_companies())
      .Int("cols", model.num_features())
      .Int("blocks", static_cast<int64_t>(blocks.size()));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// One HTTP/1.0 GET against the admin plane; the response body or "".
std::string HttpGet(int port, const std::string& path) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::string response;
  if (serve::WriteBytes(fd, request).ok()) {
    char buf[65536];
    for (;;) {
      const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
      if (got <= 0) break;
      response.append(buf, static_cast<size_t>(got));
    }
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

enum Outcome : uint8_t {
  kPending = 0,
  kOk,
  kShed,
  kDeadline,
  kError,
};

/// One scheduled request of the open loop.
struct Slot {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  int block = 0;
  Outcome outcome = kPending;
  bool wrong = false;
};

/// Drives `rate` requests/s for `seconds` over kConnections pipelined
/// connections. Request i is due at start + i / rate (evenly phased) and
/// goes out on connection i % kConnections; its latency runs from its due
/// time. Each connection has one sender and one reader thread, so the
/// number of requests in flight is bounded by neither.
Json RunRate(int port, double rate, double seconds, uint32_t deadline_ms,
             const std::vector<la::Matrix>& blocks,
             const std::vector<std::vector<double>>& expected) {
  const int conns = std::max(
      1, std::min(kConnections,
                  static_cast<int>(std::thread::hardware_concurrency())));
  const size_t total = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<Slot> slots(total);
  std::vector<int> fds;
  for (int c = 0; c < conns; ++c) {
    const int fd = Connect(port);
    if (fd < 0) {
      std::fprintf(stderr, "perfbench: connect to port %d failed\n", port);
      std::exit(1);
    }
    fds.push_back(fd);
  }
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = 0; i < total; ++i) {
    slots[i].due = start + std::chrono::nanoseconds(static_cast<int64_t>(
                               1e9 * static_cast<double>(i) / rate));
    slots[i].block = static_cast<int>(i % blocks.size());
  }
  std::atomic<size_t> received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {  // sender
      for (size_t i = static_cast<size_t>(c); i < total;
           i += static_cast<size_t>(conns)) {
        std::this_thread::sleep_until(slots[i].due);
        const std::string wire = serve::EncodeScoreRequest(
            i + 1, deadline_ms, blocks[slots[i].block]);
        slots[i].sent = Clock::now();
        if (!serve::WriteBytes(fds[c], wire).ok()) break;
      }
    });
    threads.emplace_back([&, c] {  // reader
      std::string body;
      while (serve::ReadFrameBody(fds[c], &body).ok()) {
        const auto now = Clock::now();
        auto frame = serve::DecodeFrame(body);
        if (!frame.ok()) break;
        const serve::Frame& f = frame.ValueOrDie();
        if (f.request_id == 0 || f.request_id > total) break;
        Slot& slot = slots[f.request_id - 1];
        slot.done = now;
        switch (static_cast<StatusCode>(f.status_code)) {
          case StatusCode::kOk:
            slot.outcome = kOk;
            slot.wrong = !BitEqual(f.values, expected[slot.block]);
            break;
          case StatusCode::kUnavailable:
            slot.outcome = kShed;
            break;
          case StatusCode::kDeadlineExceeded:
            slot.outcome = kDeadline;
            break;
          default:
            slot.outcome = kError;
            break;
        }
        received.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // Join the senders, then give the readers a bounded drain window.
  for (size_t t = 0; t < threads.size(); t += 2) threads[t].join();
  const auto sends_done = Clock::now();
  const auto drain_deadline = sends_done + std::chrono::seconds(3);
  while (received.load(std::memory_order_acquire) < total &&
         Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int fd : fds) ::shutdown(fd, SHUT_RDWR);
  for (size_t t = 1; t < threads.size(); t += 2) threads[t].join();
  for (int fd : fds) ::close(fd);

  uint64_t ok = 0, in_limit = 0, shed = 0, deadline = 0, error = 0,
           transport = 0, wrong = 0;
  std::vector<double> latency, late;
  std::vector<double> first_quarter, last_quarter;
  Clock::time_point last_done = start;
  for (size_t i = 0; i < total; ++i) {
    const Slot& s = slots[i];
    late.push_back(std::max(0.0, Ms(s.due, s.sent)));
    switch (s.outcome) {
      case kPending:
        ++transport;
        continue;
      case kShed:
        ++shed;
        break;
      case kDeadline:
        ++deadline;
        break;
      case kError:
        ++error;
        break;
      case kOk: {
        ++ok;
        const double ms = Ms(s.due, s.done);
        latency.push_back(ms);
        if (s.wrong) {
          ++wrong;
        } else if (ms <= kLimitMs) {
          ++in_limit;
        }
        if (i < total / 4) first_quarter.push_back(ms);
        if (i >= total - total / 4) last_quarter.push_back(ms);
        break;
      }
    }
    last_done = std::max(last_done, s.done);
  }
  const double p50 = Percentile(latency, 0.50);
  const double p99 = Percentile(latency, 0.99);
  const double mean =
      latency.empty() ? 0.0
                      : std::accumulate(latency.begin(), latency.end(), 0.0) /
                            static_cast<double>(latency.size());
  // A backlog that grows over the step shows as a last-quarter median far
  // above the first quarter's.
  const double q1 = Median(first_quarter), q4 = Median(last_quarter);
  const bool backlog = !last_quarter.empty() && q4 > 2.0 * q1 + kLimitMs / 2;
  const double late_p99 = Percentile(late, 0.99);
  Json j;
  j.Num("rate", rate)
      .Int("sent", static_cast<int64_t>(total))
      .Int("ok", static_cast<int64_t>(ok))
      .Int("ok_in_limit", static_cast<int64_t>(in_limit))
      .Int("shed", static_cast<int64_t>(shed))
      .Int("deadline", static_cast<int64_t>(deadline))
      .Int("error", static_cast<int64_t>(error))
      .Int("transport", static_cast<int64_t>(transport))
      .Int("wrong", static_cast<int64_t>(wrong))
      .Num("p50_ms", p50)
      .Num("p99_ms", p99)
      .Num("mean_ms", mean)
      .Num("wall_s", Ms(start, last_done) / 1000.0)
      .Num("late_ms_p99", late_p99)
      .Int("fell_behind", late_p99 > kLimitMs ? 1 : 0)
      .Int("backlog", backlog ? 1 : 0);
  return j;
}

/// Drives every rate of kNetworkRates for an equal share of `seconds`,
/// scraping the server's /metrics.json before the ladder and after each
/// rate.
int Serve(const std::string& dir, int port, int admin_port, double seconds) {
  const std::vector<double> rates(std::begin(kNetworkRates),
                                  std::end(kNetworkRates));
  const double step_seconds = seconds / static_cast<double>(rates.size());
  if (dir.empty() || port <= 0 || step_seconds <= 0.0) {
    std::fprintf(stderr,
                 "perfbench serve: --dir, --port and --seconds needed\n");
    return 2;
  }
  auto model = serve::LoadAmsArtifact(dir + "/model.ams");
  model.status().Abort("load artifact");
  auto blocks = ReadBlocks(dir + "/blocks.bin");
  blocks.status().Abort("read blocks");
  // The serve-golden contract: every OK response must equal a direct
  // AmsModel::Predict of the same block, bit for bit.
  std::vector<std::vector<double>> expected;
  for (const la::Matrix& b : blocks.ValueOrDie()) {
    expected.push_back(
        model.ValueOrDie().Predict(BlocksDataset({&b})).MoveValue());
  }
  // Warm the connection path and the server's first batches.
  RunRate(port, 200.0, 0.1, 0, blocks.ValueOrDie(), expected);
  const std::string before =
      admin_port > 0 ? HttpGet(admin_port, "/metrics.json") : "";
  std::string steps = "[";
  for (size_t r = 0; r < rates.size(); ++r) {
    Json step = RunRate(port, rates[r], step_seconds, kNetworkDeadlineMs,
                        blocks.ValueOrDie(), expected);
    if (admin_port > 0) {
      const std::string scrape = HttpGet(admin_port, "/metrics.json");
      if (!scrape.empty() && scrape.front() == '{') {
        step.Raw("metrics",
                 scrape.substr(0, scrape.find_last_not_of("\n") + 1));
      }
    }
    steps += (r > 0 ? "," : "") + step.str();
    // Let the queue empty before the next rate starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  Json out;
  out.Str("workload", "serve")
      .Num("limit_ms", kLimitMs)
      .Int("deadline_ms", kNetworkDeadlineMs)
      .Raw("steps", steps + "]");
  if (!before.empty() && before.front() == '{') {
    out.Raw("metrics_before",
            before.substr(0, before.find_last_not_of("\n") + 1));
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// serve_inproc: open loop of InferenceServer::Score calls inside this
/// process against a paper-shape model, at a rate far below capacity, so
/// every request meets an idle server: its latency is the batch window plus
/// one forward pass, without the network front.
int ServeInproc(uint64_t seed, double seconds, bool trace) {
  std::vector<double> setup_point_s;
  SetupTimes times;
  std::unique_ptr<core::AmsModel> model;
  std::vector<la::Matrix> blocks;
  uint64_t allocs = 0;
  double fit_s = 0.0;
  // Times kServeInprocSetups set-ups: the fold's inputs, the serving model's
  // fit and its request blocks. Every set-up rebuilds the same model.
  auto time_setups = [&] {
    std::vector<double> totals;
    for (int i = 0; i < kServeInprocSetups; ++i) {
      const auto t0 = Clock::now();
      FoldInputs in =
          SetUpFold(data::DatasetProfile::kTransactionAmount, seed, &times);
      const uint64_t allocs0 = PoolAllocs();
      const auto fit0 = Clock::now();
      model = std::make_unique<core::AmsModel>(ArtifactConfig(seed));
      {
        AMS_TRACE_SPAN("perfbench/ams.fit");
        model->Fit(in.train, in.valid, *in.graph).Abort("fit serving model");
      }
      fit_s = Ms(fit0, Clock::now()) / 1000.0;
      allocs = PoolAllocs() - allocs0;
      blocks = QuarterBlocks(in.train);
      for (la::Matrix& b : QuarterBlocks(in.test)) {
        blocks.push_back(std::move(b));
      }
      totals.push_back(Ms(t0, Clock::now()) / 1000.0);
    }
    setup_point_s.push_back(Median(totals));
  };
  time_setups();
  // The serve-golden contract: every response must equal a direct
  // AmsModel::Predict of the same block, bit for bit.
  std::vector<std::vector<double>> expected;
  for (const la::Matrix& b : blocks) {
    expected.push_back(model->Predict(BlocksDataset({&b})).MoveValue());
  }
  Json layers;
  layers.Num("data.generate_ms", times.generate_ms)
      .Num("data.features_ms", times.features_ms)
      .Num("graph.build_ms", times.graph_ms)
      .Num("ams.fit_s", fit_s)
      .Int("ams.epochs", model->epochs_run())
      .Num("ams.epoch_ms", 1000.0 * fit_s / std::max(1, model->epochs_run()))
      .Num("la.allocs_per_epoch",
           static_cast<double>(allocs) / std::max(1, model->epochs_run()));
  if (trace) {
    SetupTimes unused;
    const FoldInputs in =
        SetUpFold(data::DatasetProfile::kTransactionAmount, seed, &unused);
    layers.Raw("replay", TensorReplay(in.graph->AttentionMask(), seed).str())
        .Num("la.matmul_us", MatmulUs(seed))
        .Raw("serving", ServingReplay(*model, blocks).str());
  }

  serve::InferenceServer server(serve::ServerOptions::FromEnv());
  auto state = model->ExportState();
  state.status().Abort("export model");
  server.LoadModel(core::AmsModel::FromState(state.ValueOrDie()).MoveValue())
      .Abort("load model");
  for (int i = 0; i < 20; ++i) server.Score(blocks[0]).status().Abort("warm");

  const int threads = kServeCallers;
  const double rate = kServeRate;
  const size_t total = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<Slot> slots(total);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = 0; i < total; ++i) {
    slots[i].due = start + std::chrono::nanoseconds(static_cast<int64_t>(
                               1e9 * static_cast<double>(i) / rate));
    slots[i].block = static_cast<int>(i % blocks.size());
  }
  std::vector<std::thread> callers;
  for (int t = 0; t < threads; ++t) {
    callers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < total;
           i += static_cast<size_t>(threads)) {
        Slot& slot = slots[i];
        std::this_thread::sleep_until(slot.due - kServeSpin);
        while (Clock::now() < slot.due) {
        }
        slot.sent = Clock::now();
        auto scores = server.Score(blocks[slot.block]);
        slot.done = Clock::now();
        slot.outcome = scores.ok() ? kOk : kError;
        slot.wrong =
            scores.ok() && !BitEqual(scores.ValueOrDie(), expected[slot.block]);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  time_setups();

  std::vector<double> latency, late;
  int64_t errors = 0, wrong = 0, in_limit = 0;
  Clock::time_point last_done = start;
  for (const Slot& slot : slots) {
    late.push_back(std::max(0.0, Ms(slot.due, slot.sent)));
    last_done = std::max(last_done, slot.done);
    if (slot.outcome != kOk) {
      ++errors;
      continue;
    }
    const double ms = Ms(slot.due, slot.done);
    latency.push_back(ms);
    if (slot.wrong) {
      ++wrong;
    } else if (ms <= kLimitMs) {
      ++in_limit;
    }
  }
  layers.Num("driver.late_ms_p99", Percentile(late, 0.99));
  Json out;
  out.Str("workload", "serve_inproc")
      .Num("rate", rate)
      .Num("limit_ms", kLimitMs)
      .Nums("setup_s", setup_point_s)
      .Num("wall_s", Ms(start, last_done) / 1000.0)
      .Num("peak_rss_mb", PeakRssMb())
      .Num("p50_ms", Percentile(latency, 0.50))
      .Num("p99_ms", Percentile(latency, 0.99))
      .Int("sent", static_cast<int64_t>(total))
      .Int("ok_in_limit", in_limit)
      .Int("error", errors)
      .Int("wrong", wrong)
      .Raw("layers", layers.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int Env() {
  const serve::ServerOptions server = serve::ServerOptions::FromEnv();
  const serve::NetServerOptions net = serve::NetServerOptions::FromEnv();
  Json out;
  out.Str("build_type", PERFBENCH_BUILD_TYPE)
      .Int("AMS_THREADS", par::ParallelismFromEnv())
      .Str("AMS_SIMD", la::internal::ActiveGemmKernels().name)
      .Str("AMS_POOL", la::BufferPool::Global().enabled() ? "on" : "off")
      .Int("AMS_SERVE_BATCH", server.max_batch)
      .Num("AMS_SERVE_MAX_WAIT_MS", server.max_wait_ms)
      .Int("AMS_SERVE_QUEUE", net.max_queue)
      .Int("AMS_SERVE_WORKERS", net.num_workers)
      .Int("AMS_SERVE_DEADLINE_MS", net.default_deadline_ms)
      .Int("hardware_concurrency",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// Why this build must not record numbers, or "" when it may.
std::string BuildRefusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#elif !defined(__OPTIMIZE__)
  return "built without optimization (build type " PERFBENCH_BUILD_TYPE ")";
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release") return "build type " + type + " is not Release";
  return "";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_workloads train_fold|experiment_map|"
                 "prepare_serve|serve|serve_inproc|env [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                 refusal.c_str());
    return 3;
  }
  // AMS_TRACE_FILE (traced runs) enables the span buffer and writes the
  // Chrome trace at exit.
  obs::InstallExitReporter();
  const uint64_t seed = GetFlagU64(argc, argv, "seed", 42);
  const double seconds =
      std::strtod(GetFlag(argc, argv, "seconds", "10").c_str(), nullptr);
  const bool trace = GetFlagInt(argc, argv, "trace", 0) != 0;
  // At least two repetitions, so every run checks that the workload's
  // outputs are bit-identical from one repetition to the next.
  const size_t min_reps =
      static_cast<size_t>(std::max(1, GetFlagInt(argc, argv, "min_reps", 2)));
  if (command == "train_fold") {
    return TrainFold(seed, seconds, min_reps, trace);
  }
  if (command == "experiment_map") {
    return ExperimentMap(seed, seconds, min_reps, trace);
  }
  if (command == "prepare_serve") {
    return PrepareServe(seed, GetFlag(argc, argv, "dir", "."));
  }
  if (command == "serve") {
    return Serve(GetFlag(argc, argv, "dir", ""),
                 GetFlagInt(argc, argv, "port", 0),
                 GetFlagInt(argc, argv, "admin_port", 0), seconds);
  }
  if (command == "serve_inproc") return ServeInproc(seed, seconds, trace);
  if (command == "env") return Env();
  std::fprintf(stderr, "perfbench: unknown command %s\n", command.c_str());
  return 2;
}
