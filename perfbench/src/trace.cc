#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace perfbench {

double StealMeter::Frac() const {
  const Ticks now = Read();
  const double total = now.total - start_.total;
  return total > 0 ? (now.steal - start_.steal) / total : 0;
}

StealMeter::Ticks StealMeter::Read() {
  Ticks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

namespace {
uint64_t NextTracerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNone: return "";
    case Layer::kScreen: return "screen";
    case Layer::kFresh: return "kg_fresh";
    case Layer::kMlogAppend: return "mlog.append";
    case Layer::kMlogPoll: return "mlog.poll";
    case Layer::kInsitu: return "insitu";
    case Layer::kCpa: return "prediction.cpa";
    case Layer::kSynopses: return "synopses";
    case Layer::kLinkDiscovery: return "linkdiscovery";
    case Layer::kRdf: return "rdf";
    case Layer::kStoreAdd: return "store.add";
    case Layer::kCep: return "cep";
    case Layer::kQueryAdjacency: return "store.query.adjacency";
    case Layer::kQueryPushdown: return "store.query.pushdown";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(uint64_t sample_every)
    : sample_every_(sample_every), id_(NextTracerId()) {}

Tracer::Buffer* Tracer::Local() {
  // One buffer per (thread, tracer): a thread that outlives a tracer and
  // later records into another one gets a fresh buffer. Keyed by id, not
  // address, since a later tracer may reuse a freed one's address.
  thread_local uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != id_) {
    auto fresh = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer = fresh.get();
    buffers_.push_back(std::move(fresh));
    owner = id_;
  }
  return buffer;
}

void Tracer::Record(Layer layer, Layer parent, uint64_t trace_id, bool keep,
                    int64_t start_ns, int64_t end_ns) {
  Buffer* b = Local();
  const size_t i = static_cast<size_t>(layer);
  b->totals.self_ns[i] += end_ns - start_ns;
  ++b->totals.calls[i];
  if (keep && trace_id != 0) {
    b->spans.push_back({trace_id, start_ns, end_ns, layer, parent});
  }
}

Tracer::Totals Tracer::Sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals sum;
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < sum.self_ns.size(); ++i) {
      sum.self_ns[i] += b->totals.self_ns[i];
      sum.calls[i] += b->totals.calls[i];
    }
  }
  return sum;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "trace_id,name,parent,start_ns,end_ns\n");
  for (const Span& s : Spans()) {
    std::fprintf(f, "%llu,%s,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.trace_id),
                 LayerName(s.layer), LayerName(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
