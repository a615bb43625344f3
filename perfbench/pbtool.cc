// pbtool — the benchmark's input generator and answer checker.
//
// It deliberately shares no code with the engine: it reads and writes the
// same CSV files the programs under test receive, and computes its own
// reference answers with a plain index join (tuples sorted by (a, b)) and a
// best-first top-k search over exact suffix minima.
//
//   pbtool gen DIR PREFIX RELS ROWS DOMAIN SEED
//       Writes DIR/PREFIX1.csv .. DIR/PREFIX<RELS>.csv, ROWS rows each of
//       "a,b,w": a, b uniform in [0, DOMAIN), w uniform integer in
//       [0, 10000] (the engine's workload generators use the same ranges).
//
//   pbtool check DIR [--spec SPEC FILE...]...
//       SPEC = PREFIX,SHAPE,L,ORDER,N  e.g. R,path,4,asc,100 or
//       C,cycle,4,asc,0 (N = 0: the whole output). For every FILE, the
//       RESULT lines (RESULT,rank,weight,v0,...) must be the statement's
//       first min(N, total) answers: ranks 1..n in order, the reference
//       weight sequence exactly, and every row a real join answer whose
//       (values, weight) occurs no more often than it has witnesses.
//       Prints one JSON object per spec and one per file.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <system_error>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

constexpr int64_t kWeightMax = 10000;
constexpr int64_t kNone = INT64_MAX;  // no continuation (dangling tuple)
constexpr int64_t kMaxDomain = int64_t{1} << 24;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform in [0, n) without modulo bias worth caring about at n <= 2^32.
uint64_t Below(uint64_t* state, uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(SplitMix64(state)) * n) >> 64);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "pbtool: %s\n", msg.c_str());
  std::exit(1);
}

int64_t ParseInt(const std::string& s) {
  int64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) {
    Die("not an integer: " + s);
  }
  return v;
}

std::string ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) Die("cannot open " + path);
  std::string data;
  char buf[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, got);
  std::fclose(f);
  return data;
}

// Splits "x,y,z" at commas into integer fields; false on anything else.
bool ParseFields(const char* p, const char* end, std::vector<int64_t>* out) {
  out->clear();
  while (p < end) {
    bool neg = false;
    if (*p == '-') {
      neg = true;
      ++p;
    }
    if (p >= end || *p < '0' || *p > '9') return false;
    int64_t v = 0;
    while (p < end && *p >= '0' && *p <= '9') v = v * 10 + (*p++ - '0');
    out->push_back(neg ? -v : v);
    if (p < end) {
      if (*p != ',') return false;
      ++p;
      if (p == end) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------------

int Gen(int argc, char** argv) {
  if (argc != 8) Die("usage: pbtool gen DIR PREFIX RELS ROWS DOMAIN SEED");
  const std::string dir = argv[2];
  const std::string prefix = argv[3];
  const int64_t rels = ParseInt(argv[4]);
  const int64_t rows = ParseInt(argv[5]);
  const int64_t domain = ParseInt(argv[6]);
  const uint64_t seed = static_cast<uint64_t>(ParseInt(argv[7]));
  if (rels < 1 || rows < 1 || domain < 1 || domain > kMaxDomain) {
    Die("gen: sizes out of range");
  }
  for (int64_t r = 1; r <= rels; ++r) {
    // One independent stream per relation, derived from (seed, prefix, r).
    uint64_t state = seed * 0x100000001b3ULL + static_cast<uint64_t>(r);
    for (char c : prefix) state = state * 131 + static_cast<uint8_t>(c);
    SplitMix64(&state);
    const std::string path = dir + "/" + prefix + std::to_string(r) + ".csv";
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) Die("cannot write " + path);
    std::string buf;
    buf.reserve(1 << 20);
    char line[64];
    for (int64_t i = 0; i < rows; ++i) {
      const uint64_t a = Below(&state, static_cast<uint64_t>(domain));
      const uint64_t b = Below(&state, static_cast<uint64_t>(domain));
      const uint64_t w = Below(&state, kWeightMax + 1);
      const int n = std::snprintf(line, sizeof(line), "%llu,%llu,%llu\n",
                                  static_cast<unsigned long long>(a),
                                  static_cast<unsigned long long>(b),
                                  static_cast<unsigned long long>(w));
      buf.append(line, static_cast<size_t>(n));
      if (buf.size() > (1 << 20) - 64) {
        std::fwrite(buf.data(), 1, buf.size(), f);
        buf.clear();
      }
    }
    std::fwrite(buf.data(), 1, buf.size(), f);
    if (std::fclose(f) != 0) Die("write failed: " + path);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Reference join
// ---------------------------------------------------------------------------

struct Rel {
  std::vector<int64_t> a, b, w;
  // Tuple ids sorted by (a, b), and CSR offsets over the first-column
  // values (dense: values are < kMaxDomain): range lookups by a, or by the
  // pair (a, b) inside that slice.
  std::vector<uint32_t> by_ab;
  std::vector<uint32_t> a_start;

  size_t size() const { return a.size(); }

  std::pair<size_t, size_t> RangeA(int64_t key) const {
    if (key < 0 || key + 1 >= static_cast<int64_t>(a_start.size())) {
      return {0, 0};
    }
    return {a_start[static_cast<size_t>(key)],
            a_start[static_cast<size_t>(key) + 1]};
  }
  std::pair<size_t, size_t> RangeAB(int64_t ka, int64_t kb) const {
    const auto [lo, hi] = RangeA(ka);
    const auto first = by_ab.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = by_ab.begin() + static_cast<std::ptrdiff_t>(hi);
    const auto l = std::lower_bound(
        first, last, kb, [&](uint32_t t, int64_t k) { return b[t] < k; });
    const auto h = std::upper_bound(
        l, last, kb, [&](int64_t k, uint32_t t) { return k < b[t]; });
    return {static_cast<size_t>(l - by_ab.begin()),
            static_cast<size_t>(h - by_ab.begin())};
  }
};

Rel LoadRel(const std::string& path) {
  const std::string data = ReadFile(path);
  Rel r;
  std::vector<int64_t> f;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < data.size()) {
    size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) nl = data.size();
    ++line_no;
    if (nl > pos) {
      if (!ParseFields(data.data() + pos, data.data() + nl, &f) ||
          f.size() != 3) {
        Die(path + ":" + std::to_string(line_no) + ": expected a,b,w");
      }
      r.a.push_back(f[0]);
      r.b.push_back(f[1]);
      r.w.push_back(f[2]);
    }
    pos = nl + 1;
  }
  r.by_ab.resize(r.size());
  for (size_t i = 0; i < r.size(); ++i) r.by_ab[i] = static_cast<uint32_t>(i);
  std::sort(r.by_ab.begin(), r.by_ab.end(), [&](uint32_t x, uint32_t y) {
    return r.a[x] < r.a[y] || (r.a[x] == r.a[y] && r.b[x] < r.b[y]);
  });
  int64_t max_a = -1;
  for (size_t t = 0; t < r.size(); ++t) {
    if (r.a[t] < 0 || r.a[t] >= kMaxDomain || r.b[t] < 0 ||
        r.b[t] >= kMaxDomain) {
      Die(path + ": value outside [0, " + std::to_string(kMaxDomain) + ")");
    }
    max_a = std::max(max_a, r.a[t]);
  }
  r.a_start.assign(static_cast<size_t>(max_a) + 2, 0);
  for (size_t t = 0; t < r.size(); ++t) ++r.a_start[r.a[t] + 1];
  for (size_t k = 1; k < r.a_start.size(); ++k) {
    r.a_start[k] += r.a_start[k - 1];
  }
  return r;
}

struct Spec {
  std::string prefix;
  bool cycle = false;
  size_t len = 0;        // number of relations (atoms)
  bool asc = true;
  size_t n = 0;          // 0 = whole output
  std::string text;
};

Spec ParseSpec(const std::string& s) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (true) {
    const size_t c = s.find(',', pos);
    parts.push_back(s.substr(pos, c == std::string::npos ? c : c - pos));
    if (c == std::string::npos) break;
    pos = c + 1;
  }
  if (parts.size() != 5) Die("bad spec: " + s);
  Spec sp;
  sp.text = s;
  sp.prefix = parts[0];
  if (parts[1] != "path" && parts[1] != "cycle") Die("bad shape: " + s);
  sp.cycle = parts[1] == "cycle";
  sp.len = static_cast<size_t>(ParseInt(parts[2]));
  if (sp.len < 2 || (sp.cycle && sp.len < 3)) Die("bad length: " + s);
  if (parts[3] != "asc" && parts[3] != "desc") Die("bad order: " + s);
  sp.asc = parts[3] == "asc";
  sp.n = static_cast<size_t>(ParseInt(parts[4]));
  return sp;
}

struct Reference {
  uint64_t total = 0;             // exact answer count
  std::vector<int64_t> weights;   // ranked prefix (or everything)
};

// Ranked prefix of a path join R1(x0,x1), R2(x1,x2), ...: exact suffix
// optima by a backward pass, then best-first expansion of partial paths
// (an A* whose heuristic is exact, so complete paths pop in rank order).
Reference PathReference(std::span<const Rel> rels, const Spec& sp) {
  const size_t L = rels.size();
  const int64_t sign = sp.asc ? 1 : -1;  // rank by sign * weight ascending
  std::vector<std::vector<int64_t>> best(L);
  std::vector<std::vector<uint64_t>> count(L);
  for (size_t i = L; i-- > 0;) {
    const Rel& r = rels[i];
    best[i].assign(r.size(), kNone);
    count[i].assign(r.size(), 0);
    for (size_t t = 0; t < r.size(); ++t) {
      if (i + 1 == L) {
        best[i][t] = sign * r.w[t];
        count[i][t] = 1;
        continue;
      }
      const Rel& nx = rels[i + 1];
      const auto [lo, hi] = nx.RangeA(r.b[t]);
      int64_t m = kNone;
      uint64_t c = 0;
      for (size_t j = lo; j < hi; ++j) {
        const uint32_t u = nx.by_ab[j];
        if (best[i + 1][u] == kNone) continue;
        m = std::min(m, best[i + 1][u]);
        c += count[i + 1][u];
      }
      if (m != kNone) {
        best[i][t] = sign * r.w[t] + m;
        count[i][t] = c;
      }
    }
  }
  Reference ref;
  for (size_t t = 0; t < rels[0].size(); ++t) ref.total += count[0][t];

  struct Node {
    int64_t prefix;  // sign * weight of the tuples chosen so far
    uint32_t tuple;
    uint32_t depth;
  };
  std::vector<Node> nodes;
  using Entry = std::pair<int64_t, uint32_t>;  // (priority, node)
  std::vector<Entry> heap;
  for (size_t t = 0; t < rels[0].size(); ++t) {
    if (best[0][t] == kNone) continue;
    nodes.push_back({sign * rels[0].w[t], static_cast<uint32_t>(t), 0});
    heap.emplace_back(best[0][t], static_cast<uint32_t>(nodes.size() - 1));
  }
  auto cmp = [](const Entry& x, const Entry& y) { return x.first > y.first; };
  std::make_heap(heap.begin(), heap.end(), cmp);
  const uint64_t want = sp.n == 0 ? ref.total : std::min<uint64_t>(sp.n, ref.total);
  while (!heap.empty() && ref.weights.size() < want) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const Entry e = heap.back();
    heap.pop_back();
    const Node nd = nodes[e.second];
    if (nd.depth + 1 == L) {
      ref.weights.push_back(sign * e.first);
      continue;
    }
    const Rel& r = rels[nd.depth];
    const Rel& nx = rels[nd.depth + 1];
    const auto [lo, hi] = nx.RangeA(r.b[nd.tuple]);
    for (size_t j = lo; j < hi; ++j) {
      const uint32_t u = nx.by_ab[j];
      if (best[nd.depth + 1][u] == kNone) continue;
      nodes.push_back({nd.prefix + sign * nx.w[u], u, nd.depth + 1});
      heap.emplace_back(nd.prefix + best[nd.depth + 1][u],
                        static_cast<uint32_t>(nodes.size() - 1));
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  return ref;
}

// Every answer of a cycle join R1(x0,x1), ..., RL(x_{L-1},x0), sorted.
void CycleWalk(std::span<const Rel> rels, size_t i, int64_t w,
               std::vector<int64_t>* vals, std::vector<int64_t>* out) {
  const Rel& r = rels[i];
  if (i + 1 == rels.size()) {
    const auto [lo, hi] = r.RangeAB((*vals)[i], (*vals)[0]);
    for (size_t j = lo; j < hi; ++j) out->push_back(w + r.w[r.by_ab[j]]);
    return;
  }
  const auto [lo, hi] = r.RangeA((*vals)[i]);
  for (size_t j = lo; j < hi; ++j) {
    const uint32_t t = r.by_ab[j];
    (*vals)[i + 1] = r.b[t];
    CycleWalk(rels, i + 1, w + r.w[t], vals, out);
  }
}

Reference CycleReference(std::span<const Rel> rels, const Spec& sp) {
  std::vector<int64_t> all;
  std::vector<int64_t> vals(rels.size());
  for (size_t t = 0; t < rels[0].size(); ++t) {
    vals[0] = rels[0].a[t];
    vals[1] = rels[0].b[t];
    CycleWalk(rels, 1, rels[0].w[t], &vals, &all);
  }
  Reference ref;
  ref.total = all.size();
  if (sp.asc) {
    std::sort(all.begin(), all.end());
  } else {
    std::sort(all.begin(), all.end(), std::greater<int64_t>());
  }
  if (sp.n != 0 && all.size() > sp.n) all.resize(sp.n);
  ref.weights = std::move(all);
  return ref;
}

uint64_t Fnv(uint64_t h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t WeightDigest(const std::vector<int64_t>& ws) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int64_t w : ws) h = Fnv(h, w);
  return h;
}

// Number of witness combinations (one tuple per atom) that produce the
// answer `vals` with total weight `w`.
uint64_t Witnesses(std::span<const Rel> rels, const Spec& sp,
                   const int64_t* vals, int64_t w) {
  const size_t L = rels.size();
  constexpr size_t kMaxAtoms = 16;
  if (L > kMaxAtoms) Die("too many atoms");
  size_t lo[kMaxAtoms], hi[kMaxAtoms], at[kMaxAtoms];
  for (size_t i = 0; i < L; ++i) {
    const int64_t nb = sp.cycle ? vals[(i + 1) % L] : vals[i + 1];
    std::tie(lo[i], hi[i]) = rels[i].RangeAB(vals[i], nb);
    if (lo[i] == hi[i]) return 0;
    at[i] = lo[i];
  }
  // Odometer over the (almost always single-tuple) witness ranges.
  uint64_t found = 0;
  while (true) {
    int64_t acc = 0;
    for (size_t i = 0; i < L; ++i) acc += rels[i].w[rels[i].by_ab[at[i]]];
    if (acc == w) ++found;
    size_t i = 0;
    while (i < L && ++at[i] == hi[i]) {
      at[i] = lo[i];
      ++i;
    }
    if (i == L) return found;
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Checks one answer file against the reference; returns "" when it holds.
std::string CheckFile(const std::string& path, std::span<const Rel> rels,
                      const Spec& sp, const Reference& ref, size_t* count,
                      uint64_t* digest) {
  const std::string data = ReadFile(path);
  const size_t nv = sp.cycle ? sp.len : sp.len + 1;  // answer variables
  const size_t stride = nv + 1;                      // values + weight
  std::vector<int64_t> rows;
  std::vector<int64_t> weights;
  std::vector<int64_t> f;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) nl = data.size();
    if (data.compare(pos, 7, "RESULT,") == 0) {
      const char* p = data.data() + pos + 7;
      const char* end = data.data() + nl;
      // RESULT,rank,weight,v0,...: the weight is printed with %.6g.
      const char* c1 = static_cast<const char*>(std::memchr(p, ',', end - p));
      if (c1 == nullptr) return "malformed RESULT line";
      const char* c2 =
          static_cast<const char*>(std::memchr(c1 + 1, ',', end - c1 - 1));
      if (c2 == nullptr) return "malformed RESULT line";
      std::vector<int64_t> rank;
      if (!ParseFields(p, c1, &rank) || rank.size() != 1) return "bad rank";
      double wd = 0;
      const auto [wend, wec] = std::from_chars(c1 + 1, c2, wd);
      if (wec != std::errc() || wend != c2 ||
          std::fabs(wd - std::round(wd)) > 1e-9) {
        return "non-integral weight " + std::string(c1 + 1, c2);
      }
      if (!ParseFields(c2 + 1, end, &f) || f.size() != nv) {
        return "wrong number of values at rank " + std::to_string(rank[0]);
      }
      if (rank[0] != static_cast<int64_t>(weights.size()) + 1) {
        return "rank " + std::to_string(rank[0]) + " out of sequence";
      }
      weights.push_back(static_cast<int64_t>(std::llround(wd)));
      rows.insert(rows.end(), f.begin(), f.end());
      rows.push_back(weights.back());
    }
    pos = nl + 1;
  }
  *count = weights.size();
  *digest = WeightDigest(weights);
  if (weights.size() != ref.weights.size()) {
    return "got " + std::to_string(weights.size()) + " answers, expected " +
           std::to_string(ref.weights.size());
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] != ref.weights[i]) {
      return "weight at rank " + std::to_string(i + 1) + " is " +
             std::to_string(weights[i]) + ", expected " +
             std::to_string(ref.weights[i]);
    }
  }
  // Every distinct (values, weight) row must have at least as many
  // witnesses as it occurs.
  const size_t n = weights.size();
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  auto row = [&](uint32_t i) { return rows.data() + i * stride; };
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return std::lexicographical_compare(row(x), row(x) + stride, row(y),
                                        row(y) + stride);
  });
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && std::equal(row(order[i]), row(order[i]) + stride,
                               row(order[j]))) {
      ++j;
    }
    const int64_t* r = row(order[i]);
    const uint64_t have = Witnesses(rels, sp, r, r[nv]);
    if (have < j - i) {
      return have == 0 ? "rank " + std::to_string(order[i] + 1) +
                             " is not a join answer"
                       : "answer at rank " + std::to_string(order[i] + 1) +
                             " repeated beyond its witnesses";
    }
    i = j;
  }
  return "";
}

// Digest of a file's RESULT lines, byte for byte: repeated runs of one
// program on one input print identical answers, which are checked once.
uint64_t ResultBytesDigest(const std::string& path) {
  const std::string data = ReadFile(path);
  uint64_t h = 0xcbf29ce484222325ULL;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) nl = data.size();
    if (data.compare(pos, 7, "RESULT,") == 0) {
      for (size_t i = pos; i <= nl && i < data.size(); ++i) {
        h ^= static_cast<uint8_t>(data[i]);
        h *= 0x100000001b3ULL;
      }
    }
    pos = nl + 1;
  }
  return h;
}

int Check(int argc, char** argv) {
  if (argc < 3) Die("usage: pbtool check DIR [--spec SPEC FILE...]...");
  const std::string dir = argv[2];
  bool all_ok = true;
  std::unordered_map<std::string, std::vector<Rel>> cache;
  int i = 3;
  while (i < argc) {
    if (std::strcmp(argv[i], "--spec") != 0 || i + 1 >= argc) {
      Die("expected --spec SPEC");
    }
    const Spec sp = ParseSpec(argv[i + 1]);
    i += 2;
    // Relations are loaded once and shared by every spec naming them.
    std::vector<Rel>& loaded = cache[sp.prefix];
    while (loaded.size() < sp.len) {
      loaded.push_back(LoadRel(dir + "/" + sp.prefix +
                               std::to_string(loaded.size() + 1) + ".csv"));
    }
    const std::span<const Rel> rels(loaded.data(), sp.len);
    const Reference ref =
        sp.cycle ? CycleReference(rels, sp) : PathReference(rels, sp);
    std::printf(
        "{\"spec\": \"%s\", \"total\": %llu, \"prefix\": %zu, "
        "\"digest\": \"%016llx\"}\n",
        JsonEscape(sp.text).c_str(), static_cast<unsigned long long>(ref.total),
        ref.weights.size(),
        static_cast<unsigned long long>(WeightDigest(ref.weights)));
    struct Verdict {
      std::string err;
      size_t count;
      uint64_t digest;
    };
    std::unordered_map<uint64_t, Verdict> seen;
    while (i < argc && std::strcmp(argv[i], "--spec") != 0) {
      const uint64_t bytes = ResultBytesDigest(argv[i]);
      auto it = seen.find(bytes);
      if (it == seen.end()) {
        Verdict v;
        v.err = CheckFile(argv[i], rels, sp, ref, &v.count, &v.digest);
        it = seen.emplace(bytes, v).first;
      }
      const std::string& err = it->second.err;
      const size_t count = it->second.count;
      const uint64_t digest = it->second.digest;
      all_ok = all_ok && err.empty();
      std::printf(
          "{\"file\": \"%s\", \"ok\": %s, \"count\": %zu, "
          "\"digest\": \"%016llx\", \"error\": \"%s\"}\n",
          JsonEscape(argv[i]).c_str(), err.empty() ? "true" : "false", count,
          static_cast<unsigned long long>(digest), JsonEscape(err).c_str());
      ++i;
    }
  }
  std::fflush(stdout);
  return all_ok ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "gen") == 0) return Gen(argc, argv);
  if (argc >= 2 && std::strcmp(argv[1], "check") == 0) return Check(argc, argv);
  Die("usage: pbtool gen|check ...");
}
