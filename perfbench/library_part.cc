// Library naive evaluation at scale: AlmostCertainAnswers (Theorem 1: the
// almost-certain answers are the naive ones) and EvaluateDatalog on one
// generated incomplete database, with insert batches between the queries.
// Every answer set is checked against hash-join / anti-join / forall /
// BFS-closure computations written here over the relation rows, with nulls
// as distinct values (Definition 3).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/measure.h"
#include "data/database.h"
#include "data/relation.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "par/pool.h"
#include "perfbench.h"
#include "plan/compiler.h"
#include "plan/vm.h"
#include "query/eval.h"
#include "query/parser.h"

namespace perfbench {
namespace {

using zeroone::Database;
using zeroone::DatalogProgram;
using zeroone::Query;
using zeroone::Relation;
using zeroone::Tuple;
using zeroone::Value;

// The selective shapes share one latency class; each runs once per round.
const char* const kSelectShapes[] = {
    "Q(x, y) := R(x, y) & !S(x, y)",
    "Q(x) := U(x) & forall y . R(x, y) -> S(x, y)",
    "Q(x, y) := R(x, y) & R(y, x)",
};
constexpr std::size_t kInsertBatch = 256;
const char* const kJoinShape = "Q(x, y) := exists z . A(x, z) & B(z, y)";
const char* const kClosureProgram =
    "T(X, Y) :- E(X, Y).\n"
    "T(X, Z) :- E(X, Y), T(Y, Z).\n"
    "?- T\n";

std::uint64_t Key(Value v) {
  return (static_cast<std::uint64_t>(v.is_null()) << 31) | v.id();
}
std::uint64_t PairKey(Value a, Value b) { return (Key(a) << 32) | Key(b); }

std::unordered_set<std::uint64_t> PairSet(const Relation& rel) {
  std::unordered_set<std::uint64_t> set;
  set.reserve(rel.size() * 2);
  for (Relation::Row row : rel) set.insert(PairKey(row[0], row[1]));
  return set;
}

std::vector<Tuple> OracleAntiJoin(const Database& db) {
  std::unordered_set<std::uint64_t> s = PairSet(db.relation("S"));
  std::vector<Tuple> out;
  for (Relation::Row row : db.relation("R")) {
    if (!s.count(PairKey(row[0], row[1]))) out.push_back(row.ToTuple());
  }
  return out;
}

std::vector<Tuple> OracleForall(const Database& db) {
  std::unordered_set<std::uint64_t> s = PairSet(db.relation("S"));
  std::unordered_set<std::uint64_t> refuted;
  for (Relation::Row row : db.relation("R")) {
    if (!s.count(PairKey(row[0], row[1]))) refuted.insert(Key(row[0]));
  }
  std::vector<Tuple> out;
  for (Relation::Row row : db.relation("U")) {
    if (!refuted.count(Key(row[0]))) out.push_back(row.ToTuple());
  }
  return out;
}

std::vector<Tuple> OracleTwoCycle(const Database& db) {
  std::unordered_set<std::uint64_t> r = PairSet(db.relation("R"));
  std::vector<Tuple> out;
  for (Relation::Row row : db.relation("R")) {
    if (r.count(PairKey(row[1], row[0]))) out.push_back(row.ToTuple());
  }
  return out;
}

std::vector<Tuple> OracleJoin(const Database& db) {
  std::unordered_map<std::uint64_t, std::vector<Value>> b_by_z;
  for (Relation::Row row : db.relation("B")) {
    b_by_z[Key(row[0])].push_back(row[1]);
  }
  std::unordered_set<std::uint64_t> seen;
  std::vector<Tuple> out;
  for (Relation::Row row : db.relation("A")) {
    auto it = b_by_z.find(Key(row[1]));
    if (it == b_by_z.end()) continue;
    for (Value y : it->second) {
      if (seen.insert(PairKey(row[0], y)).second) out.push_back({row[0], y});
    }
  }
  return out;
}

std::vector<Tuple> OracleClosure(const Database& db) {
  std::unordered_map<std::uint64_t, std::vector<Value>> next;
  std::vector<Value> nodes;
  std::unordered_set<std::uint64_t> known;
  for (Relation::Row row : db.relation("E")) {
    next[Key(row[0])].push_back(row[1]);
    if (known.insert(Key(row[0])).second) nodes.push_back(row[0]);
  }
  std::vector<Tuple> out;
  for (Value source : nodes) {
    std::unordered_set<std::uint64_t> reached;
    std::vector<Value> frontier{source};
    while (!frontier.empty()) {
      Value at = frontier.back();
      frontier.pop_back();
      auto it = next.find(Key(at));
      if (it == next.end()) continue;
      for (Value to : it->second) {
        if (reached.insert(Key(to)).second) {
          out.push_back({source, to});
          frontier.push_back(to);
        }
      }
    }
  }
  return out;
}

class LibraryPart : public Part {
 public:
  LibraryPart(const Scale& scale, std::uint64_t seed)
      : scale_(scale), rng_(seed ^ 0x11b7a1eULL) {}

  bool Setup(Context& ctx) override {
    for (const char* text : kSelectShapes) {
      zeroone::StatusOr<Query> q = zeroone::ParseQuery(text);
      if (!q.ok()) return false;
      selects_.push_back(*q);
    }
    zeroone::StatusOr<Query> join = zeroone::ParseQuery(kJoinShape);
    zeroone::StatusOr<DatalogProgram> closure =
        zeroone::ParseDatalogProgram(kClosureProgram);
    if (!join.ok() || !closure.ok()) return false;
    join_ = *join;
    closure_ = *closure;
    Generate();
    closure_expected_ = Sorted(OracleClosure(base_));
    std::fprintf(stderr,
                 "perfbench: library database %zu tuples, %zu nulls; join %zu "
                 "answers, closure %zu pairs\n",
                 base_.TupleCount(), base_.Nulls().size(),
                 join_expected_.size(), closure_expected_.size());
    // The layered path (adom + compile + VM) must give EvaluateQuery's
    // answers at width 1 and at the pinned width.
    zeroone::par::SetParThreads(scale_.width);
    for (const Query& q : selects_) CheckLayered(ctx, q, base_);
    CheckLayered(ctx, join_, base_);
    return true;
  }

  std::size_t OpsPerRound() const override {
    // The select shapes, the insert batches, the join and the closure.
    return scale_.library_repeats *
           (selects_.size() + scale_.insert_repeats + 2);
  }

  void Round(Context& ctx) override {
    for (std::size_t i = 0; i < scale_.library_repeats; ++i) RoundOnce(ctx);
  }

 private:
  void RoundOnce(Context& ctx) {
    zeroone::par::SetParThreads(scale_.width);
    Clock::time_point generate_start = Clock::now();
    db_ = base_;
    FreshJoinRelations(&db_);
    ctx.AddOverheadMs(MsSince(generate_start));
    for (std::size_t i = 0; i < selects_.size(); ++i) {
      // One batch per round, after the first query has built R's indexes:
      // the insert drops them and the later queries rebuild them.
      if (i == 1) InsertBatch(ctx);
      ctx.tracer()->BeginOp();
      std::vector<Tuple> answers;
      {
        Tracer::Scope op(ctx.tracer(), "op.fo_select");
        ctx.Attempt();
        CounterDelta counters;
        CpuTurn turn(scale_.width);
        double ms = TimeCall(ctx, "core.AlmostCertainAnswers", [&] {
          answers = zeroone::AlmostCertainAnswers(selects_[i], db_);
        });
        ctx.AddSample("fo_select.shape" + std::to_string(i), ms);
        if (ctx.traced()) {
          ctx.AddCount("data.index_builds", counters("relation.index.builds"));
          ctx.AddCount("data.stats_builds", counters("relation.stats.builds"));
          ctx.AddCount("data.probe_hits", counters("relation.index.probe_hits"));
          ctx.AddCount("data.probes", counters("relation.index.probe_hits") +
                                          counters("relation.index.probe_misses"));
          ctx.AddCount("data.select_ops", 1);
          CountPar(ctx, counters);
        }
      }
      Clock::time_point check_start = Clock::now();
      CheckAnswers(ctx, kSelectShapes[i], std::move(answers),
                   Sorted(SelectOracle(i)));
      ctx.AddOverheadMs(MsSince(check_start));
      if (ctx.traced()) ProbeSelect(ctx, i);
    }

    ctx.tracer()->BeginOp();
    std::vector<Tuple> joined;
    {
      Tracer::Scope op(ctx.tracer(), "op.fo_join");
      ctx.Attempt();
      CounterDelta counters;
      CpuTurn turn(scale_.width);
      double ms = TimeCall(ctx, "core.AlmostCertainAnswers", [&] {
        joined = zeroone::AlmostCertainAnswers(join_, db_);
      });
      ctx.AddSample("fo_join", ms);
      if (ctx.traced()) CountPar(ctx, counters);
    }
    Clock::time_point check_start = Clock::now();
    CheckAnswers(ctx, kJoinShape, std::move(joined), join_expected_);
    ctx.AddOverheadMs(MsSince(check_start));

    ctx.tracer()->BeginOp();
    std::vector<Tuple> closure;
    {
      Tracer::Scope op(ctx.tracer(), "op.datalog");
      ctx.Attempt();
      CounterDelta counters;
      CpuTurn turn(scale_.width);
      double ms = TimeCall(ctx, "datalog.EvaluateDatalog", [&] {
        closure = zeroone::EvaluateDatalog(closure_, db_);
      });
      ctx.AddSample("datalog", ms);
      if (ctx.traced()) {
        ctx.AddSample("par.datalog_team_ms", ms);
        ctx.AddCount("datalog.rounds", counters("datalog.rounds"));
        ctx.AddCount("datalog.facts_derived", counters("datalog.facts_derived"));
        ctx.AddCount("datalog.rule_firings", counters("datalog.rule_firings"));
        ctx.AddCount("datalog.calls", 1);
        CountPar(ctx, counters);
      }
    }
    check_start = Clock::now();
    CheckAnswers(ctx, "transitive closure", std::move(closure),
                 closure_expected_);
    ctx.AddOverheadMs(MsSince(check_start));
    if (ctx.traced()) ProbeJoinAndClosure(ctx);
  }

  // Morsels and steals of the timed operations (not of the probes).
  static void CountPar(Context& ctx, const CounterDelta& counters) {
    ctx.AddCount("par.morsels", counters("par.morsels"));
    ctx.AddCount("par.steals", counters("par.steals"));
  }

  void Generate() {
    for (std::size_t i = 0; i < scale_.domain; ++i) {
      consts_.push_back(Value::Constant("c" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < scale_.null_labels; ++i) {
      nulls_.push_back(Value::Null("n" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < 4 * kInsertBatch; ++i) {
      batch_keys_.push_back(Value::Constant("b" + std::to_string(i)));
    }
    std::vector<Tuple> r_rows;
    std::unordered_set<std::uint64_t> r_keys;
    auto add_r = [&](Value x, Value y) {
      if (r_keys.insert(PairKey(x, y)).second) r_rows.push_back({x, y});
    };
    // 5% of R comes with its reverse, so the 2-cycle shape has answers.
    while (r_rows.size() < scale_.rows) {
      Value x = Cell();
      Value y = Cell();
      add_r(x, y);
      if (rng_.Chance(0.05)) add_r(y, x);
    }
    // S holds every R row of 40% of the first-column values (so forall has
    // answers), 20% of the other R rows, and rows/4 rows of its own.
    std::unordered_map<std::uint64_t, bool> covered;
    std::vector<Tuple> s_rows;
    for (const Tuple& t : r_rows) {
      auto [it, fresh] = covered.try_emplace(Key(t[0]), false);
      if (fresh) it->second = rng_.Chance(0.4);
      if (it->second || rng_.Chance(0.2)) s_rows.push_back(t);
    }
    for (std::size_t i = 0; i < scale_.rows / 4; ++i) {
      s_rows.push_back({Cell(), Cell()});
    }
    std::vector<Tuple> u_rows;
    for (std::size_t i = 0; i < scale_.domain / 2; ++i) {
      u_rows.push_back({Cell()});
    }
    base_.AddRelation("R", 2).InsertBatch(r_rows);
    base_.AddRelation("S", 2).InsertBatch(s_rows);
    base_.AddRelation("U", 1).InsertBatch(u_rows);

    for (const char* prefix : {"jx", "jz", "jy"}) {
      std::vector<Value>& values = join_values_[prefix];
      for (std::size_t i = 0; i < scale_.join_domain; ++i) {
        values.push_back(i % 50 == 49 && prefix == std::string("jy")
                             ? Value::Null(prefix + std::to_string(i))
                             : Value::Constant(prefix + std::to_string(i)));
      }
    }
    FreshJoinRelations(&base_);

    // A layered graph: node i of layer l has edges to nodes i and i + 1
    // (mod width) of layer l + 1, so a node reaches d + 1 nodes at depth d
    // and the closure has the same size for every seed. The seed shuffles
    // which label sits at each position; one node in twenty is a null.
    std::vector<Value> nodes;
    for (std::size_t i = 0; i < scale_.layers * scale_.layer_width; ++i) {
      nodes.push_back(i % 20 == 19 ? Value::Null("gn" + std::to_string(i))
                                   : Value::Constant("g" + std::to_string(i)));
    }
    for (std::size_t i = nodes.size(); i > 1; --i) {
      std::swap(nodes[i - 1], nodes[rng_.Below(i)]);
    }
    std::vector<Tuple> edges;
    const std::size_t w = scale_.layer_width;
    for (std::size_t l = 0; l + 1 < scale_.layers; ++l) {
      for (std::size_t i = 0; i < w; ++i) {
        Value from = nodes[l * w + i];
        edges.push_back({from, nodes[(l + 1) * w + i]});
        edges.push_back({from, nodes[(l + 1) * w + (i + 1) % w]});
      }
    }
    base_.AddRelation("E", 2).InsertBatch(edges);
  }

  // One InsertBatch takes 0.04-0.3 ms and single calls scatter over 2-3x
  // within a run, so each run of the part times insert_repeats of them for
  // the quantile to rest on enough samples. Each goes into a fresh copy of R made before the clock starts
  // (a copy drops R's indexes, as the insert itself does), so every sample
  // inserts into the same state; the last copy replaces R.
  void InsertBatch(Context& ctx) {
    Relation& r = db_.mutable_relation("R");
    Relation grown;
    for (std::size_t k = 0; k < scale_.insert_repeats; ++k) {
      Clock::time_point generate_start = Clock::now();
      std::vector<Tuple> batch;
      // New first-column values outside U: the batch grows the anti-join
      // and leaves the forall and 2-cycle answers as they were.
      for (std::size_t i = 0; i < kInsertBatch; ++i) {
        batch.push_back({batch_keys_[rng_.Below(batch_keys_.size())], Cell()});
      }
      ctx.tracer()->BeginOp();
      Tracer::Scope op(ctx.tracer(), "op.insert_batch");
      ctx.Attempt();
      CpuTurn turn(1);
      grown = Relation(r);  // Exact capacities, as the round's copy has.
      ctx.AddOverheadMs(MsSince(generate_start));
      double ms = TimeCall(ctx, "data.Relation::InsertBatch",
                           [&] { grown.InsertBatch(batch); });
      ctx.AddSample("insert", ms);
      if (ctx.traced()) ctx.AddSample("data.insert_batch_ms", ms);
    }
    r = std::move(grown);
  }

  // Replaces A and B with a fresh pair of fixed degree: every x of A has
  // join_rows / join_domain distinct z, and every z of B as many distinct
  // y (one y in fifty is a null), so the planner sees the same statistics
  // in every round. The join's cost still depends on which pairs occur by
  // up to 25%, so every round draws a new pair: a run's quantile then
  // spans many instances instead of the seed's one.
  void FreshJoinRelations(Database* db) {
    auto fixed_degree = [&](const std::vector<Value>& from,
                            std::vector<Value> to) {
      std::vector<Tuple> rows;
      std::size_t degree = scale_.join_rows / scale_.join_domain;
      for (Value f : from) {
        for (std::size_t d = 0; d < degree; ++d) {
          std::swap(to[d], to[d + rng_.Below(to.size() - d)]);
          rows.push_back({f, to[d]});
        }
      }
      return rows;
    };
    const std::vector<Value>& zs = join_values_["jz"];
    db->AddRelation("A", 2) = Relation("A", 2);
    db->mutable_relation("A").InsertBatch(fixed_degree(join_values_["jx"], zs));
    db->AddRelation("B", 2) = Relation("B", 2);
    db->mutable_relation("B").InsertBatch(fixed_degree(zs, join_values_["jy"]));
    join_expected_ = Sorted(OracleJoin(*db));
  }

  Value Cell() {
    return rng_.Chance(scale_.null_share) ? nulls_[rng_.Below(nulls_.size())]
                                          : consts_[rng_.Below(consts_.size())];
  }

  std::vector<Tuple> SelectOracle(std::size_t shape) const {
    switch (shape) {
      case 0: return OracleAntiJoin(db_);
      case 1: return OracleForall(db_);
      default: return OracleTwoCycle(db_);
    }
  }

  static std::vector<Tuple> Sorted(std::vector<Tuple> tuples) {
    std::sort(tuples.begin(), tuples.end());
    return tuples;
  }

  // The program's answers must be a set equal to the oracle's, and every
  // shape has answers (an empty set would make the comparison vacuous).
  static void CheckAnswers(Context& ctx, const std::string& what,
                           std::vector<Tuple> answers,
                           const std::vector<Tuple>& expected) {
    if (ctx.corrupt() == "drop_answer.library" && !answers.empty()) {
      answers.pop_back();
    }
    std::sort(answers.begin(), answers.end());
    if (std::adjacent_find(answers.begin(), answers.end()) != answers.end()) {
      ctx.CheckFailed(what + ": duplicate answer tuples");
    } else if (expected.empty()) {
      ctx.CheckFailed(what + ": the oracle has no answers");
    } else if (answers != expected) {
      ctx.CheckFailed(what + ": " + std::to_string(answers.size()) +
                      " answers, oracle has " + std::to_string(expected.size()));
    }
  }

  static std::vector<Tuple> Layered(const Query& q, const Database& db) {
    std::vector<Value> domain = db.ActiveDomain();
    zeroone::plan::CompiledQuery compiled = zeroone::plan::CompileFormulaQuery(
        *q.formula(), q.free_variables(), q.variable_count(),
        q.variable_names(), db, /*enumerate=*/true);
    std::vector<Tuple> answers;
    zeroone::plan::ExecuteEnumerate(compiled.program, db, domain, &answers);
    return answers;
  }

  void CheckLayered(Context& ctx, const Query& q, const Database& db) {
    std::vector<Tuple> reference = Sorted(zeroone::EvaluateQuery(q, db));
    for (std::size_t width : {std::size_t{1}, scale_.width}) {
      zeroone::par::SetParThreads(width);
      if (Sorted(Layered(q, db)) != reference) {
        ctx.CheckFailed(q.ToString() + ": layered path differs at width " +
                        std::to_string(width));
      }
    }
    zeroone::par::SetParThreads(scale_.width);
  }

  // Traced run: the select query through its layers, on the same database
  // state, so EvaluateQuery's time can be split into adom + compile + VM
  // and what none of them explains.
  void ProbeSelect(Context& ctx, std::size_t shape) {
    Clock::time_point start = Clock::now();
    ctx.tracer()->BeginOp();
    Tracer::Scope op(ctx.tracer(), "probe.fo_select");
    CpuTurn turn(scale_.width);
    zeroone::StatusOr<Query> parsed = zeroone::Query();
    double parse_ms = TimeCall(ctx, "query.ParseQuery", [&] {
      parsed = zeroone::ParseQuery(kSelectShapes[shape]);
    });
    const Query& q = *parsed;
    std::vector<Value> domain;
    double adom_ms = TimeCall(ctx, "data.Database::ActiveDomain",
                              [&] { domain = db_.ActiveDomain(); });
    zeroone::plan::CompiledQuery compiled;
    double compile_ms = TimeCall(ctx, "plan.CompileFormulaQuery", [&] {
      compiled = zeroone::plan::CompileFormulaQuery(
          *q.formula(), q.free_variables(), q.variable_count(),
          q.variable_names(), db_, /*enumerate=*/true);
    });
    std::vector<Tuple> layered;
    double vm_ms = TimeCall(ctx, "plan.ExecuteEnumerate", [&] {
      zeroone::plan::ExecuteEnumerate(compiled.program, db_, domain, &layered);
    });
    std::vector<Tuple> direct;
    double eval_ms = TimeCall(ctx, "query.EvaluateQuery",
                              [&] { direct = zeroone::EvaluateQuery(q, db_); });
    if (Sorted(layered) != Sorted(direct)) {
      ctx.CheckFailed(std::string(kSelectShapes[shape]) +
                      ": layered path differs from EvaluateQuery");
    }
    ctx.AddSample("query.parse_us", parse_ms * 1000);
    ctx.AddSample("data.adom_ms", adom_ms);
    ctx.AddSample("plan.compile_ms", compile_ms);
    ctx.AddSample("query.unattributed_ms",
                  eval_ms - adom_ms - compile_ms - vm_ms);
    ctx.AddOverheadMs(MsSince(start));
  }

  // Traced run: the join's VM at width 1 and at the pinned width, and the
  // closure at width 1 (the pinned-width closure is the timed operation).
  void ProbeJoinAndClosure(Context& ctx) {
    Clock::time_point start = Clock::now();
    CpuTurn turn(scale_.width);
    ctx.tracer()->BeginOp();
    {
      Tracer::Scope op(ctx.tracer(), "probe.fo_join");
      std::vector<Value> domain = db_.ActiveDomain();
      zeroone::plan::CompiledQuery compiled = zeroone::plan::CompileFormulaQuery(
          *join_.formula(), join_.free_variables(), join_.variable_count(),
          join_.variable_names(), db_, /*enumerate=*/true);
      zeroone::par::SetParThreads(1);
      std::vector<Tuple> serial;
      CounterDelta steps;
      double serial_ms = TimeCall(ctx, "plan.ExecuteEnumerate", [&] {
        zeroone::plan::ExecuteEnumerate(compiled.program, db_, domain, &serial);
      });
      ctx.AddCount("plan.vm_steps", steps("plan.vm.steps"));
      ctx.AddCount("plan.vm_runs", 1);
      zeroone::par::SetParThreads(scale_.width);
      std::vector<Tuple> team;
      double team_ms = TimeCall(ctx, "plan.ExecuteEnumerate", [&] {
        zeroone::plan::ExecuteEnumerate(compiled.program, db_, domain, &team);
      });
      ctx.AddSample("par.vm_serial_ms", serial_ms);
      ctx.AddSample("par.vm_team_ms", team_ms);
      ctx.AddSample("plan.vm_ms", team_ms);
      if (Sorted(serial) != join_expected_ || Sorted(team) != join_expected_) {
        ctx.CheckFailed("join: layered VM answers differ from the oracle");
      }
    }
    ctx.tracer()->BeginOp();
    {
      Tracer::Scope op(ctx.tracer(), "probe.datalog");
      zeroone::par::SetParThreads(1);
      std::vector<Tuple> closure;
      double serial_ms = TimeCall(ctx, "datalog.EvaluateDatalog", [&] {
        closure = zeroone::EvaluateDatalog(closure_, db_);
      });
      zeroone::par::SetParThreads(scale_.width);
      ctx.AddSample("par.datalog_serial_ms", serial_ms);
      if (Sorted(closure) != closure_expected_) {
        ctx.CheckFailed("closure at width 1 differs from the oracle");
      }
    }
    ctx.AddOverheadMs(MsSince(start));
  }

  Scale scale_;
  Rng rng_;
  std::vector<Value> consts_;
  std::vector<Value> nulls_;
  std::vector<Value> batch_keys_;  // First-column values of insert batches.
  std::vector<Query> selects_;
  Query join_;
  DatalogProgram closure_;
  Database base_;
  Database db_;
  std::map<std::string, std::vector<Value>> join_values_;
  std::vector<Tuple> join_expected_;  // For the current A and B.
  std::vector<Tuple> closure_expected_;
};

}  // namespace

std::unique_ptr<Part> MakeLibraryPart(const Scale& scale, std::uint64_t seed) {
  return std::make_unique<LibraryPart>(scale, seed);
}

void ReportLibraryLayers(const Context& ctx, double rounds, Metrics* out) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  double selects = ctx.Count("data.select_ops");
  (*out)["query.parse_us"] = {Percentile(ctx.Samples("query.parse_us"), kQuantile), "us"};
  // A difference of two back-to-back timings: its median, as a low
  // quantile would pick the most negative noise.
  (*out)["query.unattributed_ms"] = {
      Percentile(ctx.Samples("query.unattributed_ms"), 0.5), "ms"};
  (*out)["data.adom_ms"] = {Percentile(ctx.Samples("data.adom_ms"), kQuantile), "ms"};
  (*out)["data.insert_batch_ms"] = {
      Percentile(ctx.Samples("data.insert_batch_ms"), kQuantile), "ms"};
  (*out)["data.index_builds"] = {
      ratio(ctx.Count("data.index_builds"), selects), "count"};
  (*out)["data.stats_builds"] = {
      ratio(ctx.Count("data.stats_builds"), selects), "count"};
  (*out)["data.probe_hit_ratio"] = {
      ratio(ctx.Count("data.probe_hits"), ctx.Count("data.probes")), "ratio"};
  (*out)["plan.compile_ms"] = {Percentile(ctx.Samples("plan.compile_ms"), kQuantile), "ms"};
  (*out)["plan.vm_ms"] = {Percentile(ctx.Samples("plan.vm_ms"), kQuantile), "ms"};
  (*out)["plan.vm_steps_per_query"] = {
      ratio(ctx.Count("plan.vm_steps"), ctx.Count("plan.vm_runs")), "count"};
  (*out)["par.vm_serial_ms"] = {Percentile(ctx.Samples("par.vm_serial_ms"), kQuantile), "ms"};
  (*out)["par.vm_team_ms"] = {Percentile(ctx.Samples("par.vm_team_ms"), kQuantile), "ms"};
  (*out)["par.datalog_serial_ms"] = {
      Percentile(ctx.Samples("par.datalog_serial_ms"), kQuantile), "ms"};
  (*out)["par.datalog_team_ms"] = {
      Percentile(ctx.Samples("par.datalog_team_ms"), kQuantile), "ms"};
  (*out)["par.morsels"] = {ratio(ctx.Count("par.morsels"), rounds), "count"};
  (*out)["par.steals"] = {ratio(ctx.Count("par.steals"), rounds), "count"};
  double calls = ctx.Count("datalog.calls");
  (*out)["datalog.fixpoint_ms"] = {
      Percentile(ctx.Samples("par.datalog_team_ms"), kQuantile), "ms"};
  (*out)["datalog.rounds"] = {ratio(ctx.Count("datalog.rounds"), calls),
                              "count"};
  (*out)["datalog.facts_derived"] = {
      ratio(ctx.Count("datalog.facts_derived"), calls), "count"};
  (*out)["datalog.rule_firings"] = {
      ratio(ctx.Count("datalog.rule_firings"), calls), "count"};
}

}  // namespace perfbench
