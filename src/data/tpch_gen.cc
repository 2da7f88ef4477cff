#include "data/tpch_gen.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace gus {

namespace {

// Stream namespaces for the parallel (gen_threads >= 2) layout: every
// entity row draws from Rng::ForkStream(HashCombine(seed, tag), index) — a
// pure function of (seed, entity, index), so the instance is identical for
// every gen_threads >= 2 and for any worker schedule.
constexpr uint64_t kCustomerStream = 0xC1;
constexpr uint64_t kPartStream = 0xC2;
constexpr uint64_t kOrdersStream = 0xC3;
constexpr uint64_t kLineitemStream = 0xC4;

/// Runs fill(begin, end) over [0, n) on up to `threads` workers (disjoint
/// ranges; fill must only write rows it owns).
void ParallelRows(int threads, int64_t n,
                  const std::function<void(int64_t, int64_t)>& fill) {
  const int workers = static_cast<int>(
      std::min<int64_t>(std::max(1, threads), std::max<int64_t>(n, 1)));
  if (workers <= 1 || n <= 0) {
    fill(0, n);
    return;
  }
  PoolLease pool(workers);
  pool->ParallelForChunked(n, /*chunk=*/1024, workers,
                           [&](int, int64_t b, int64_t e) { fill(b, e); });
}

}  // namespace

Catalog TpchData::MakeCatalog() const {
  Catalog catalog;
  catalog.emplace("l", lineitem);
  catalog.emplace("o", orders);
  catalog.emplace("c", customer);
  catalog.emplace("p", part);
  return catalog;
}

TpchData GenerateTpch(const TpchConfig& config) {
  Schema customer_schema({{"c_custkey", ValueType::kInt64},
                          {"c_nationkey", ValueType::kInt64},
                          {"c_acctbal", ValueType::kFloat64}});
  Schema part_schema({{"p_partkey", ValueType::kInt64},
                      {"p_retailprice", ValueType::kFloat64}});
  Schema orders_schema({{"o_orderkey", ValueType::kInt64},
                        {"o_custkey", ValueType::kInt64},
                        {"o_totalprice", ValueType::kFloat64}});
  Schema lineitem_schema({{"l_orderkey", ValueType::kInt64},
                          {"l_linenumber", ValueType::kInt64},
                          {"l_partkey", ValueType::kInt64},
                          {"l_quantity", ValueType::kInt64},
                          {"l_extendedprice", ValueType::kFloat64},
                          {"l_discount", ValueType::kFloat64},
                          {"l_tax", ValueType::kFloat64}});

  ZipfGenerator fanout_zipf(
      static_cast<uint64_t>(config.max_lineitems_per_order),
      config.fanout_zipf_theta);
  ZipfGenerator part_zipf(static_cast<uint64_t>(config.num_parts),
                          config.part_zipf_theta);

  std::vector<Row> customer_rows;
  std::vector<Row> part_rows;
  std::vector<Row> orders_rows;
  std::vector<Row> lineitem_rows;

  if (config.gen_threads <= 1) {
    // Legacy serial layout: one generator stream in entity order —
    // bit-identical to every instance this generator has ever produced.
    Rng rng(config.seed);

    customer_rows.reserve(config.num_customers);
    for (int64_t c = 0; c < config.num_customers; ++c) {
      customer_rows.push_back(
          Row{Value(c), Value(rng.UniformInt(int64_t{0}, int64_t{24})),
              Value(rng.Uniform(-999.99, 9999.99))});
    }

    part_rows.reserve(config.num_parts);
    for (int64_t p = 0; p < config.num_parts; ++p) {
      part_rows.push_back(Row{Value(p), Value(rng.Uniform(900.0, 2100.0))});
    }

    orders_rows.reserve(config.num_orders);
    for (int64_t o = 0; o < config.num_orders; ++o) {
      orders_rows.push_back(
          Row{Value(o),
              Value(static_cast<int64_t>(rng.UniformInt(
                  static_cast<uint64_t>(config.num_customers)))),
              Value(rng.Uniform(1000.0, 500000.0))});
    }

    for (int64_t o = 0; o < config.num_orders; ++o) {
      const auto fanout = static_cast<int64_t>(fanout_zipf.Sample(&rng));
      for (int64_t ln = 1; ln <= fanout; ++ln) {
        const auto partkey = static_cast<int64_t>(part_zipf.Sample(&rng) - 1);
        lineitem_rows.push_back(
            Row{Value(o), Value(ln), Value(partkey),
                Value(rng.UniformInt(int64_t{1}, int64_t{50})),
                Value(rng.Uniform(10.0, 105000.0)),
                Value(rng.Uniform(0.0, 0.10)),
                Value(rng.Uniform(0.0, 0.08))});
      }
    }
  } else {
    // Parallel layout: each row draws from its own forked stream, making
    // every row a pure function of (seed, entity, index) — identical for
    // ALL gen_threads >= 2, independent of worker count and schedule. The
    // per-row draw order matches the serial path; only the stream each
    // draw comes from differs, so this is a different (equally valid)
    // instance of the same distribution.
    const uint64_t cust_base = HashCombine(config.seed, kCustomerStream);
    const uint64_t part_base = HashCombine(config.seed, kPartStream);
    const uint64_t orders_base = HashCombine(config.seed, kOrdersStream);
    const uint64_t line_base = HashCombine(config.seed, kLineitemStream);

    customer_rows.resize(static_cast<size_t>(config.num_customers));
    ParallelRows(config.gen_threads, config.num_customers,
                 [&](int64_t b, int64_t e) {
                   for (int64_t c = b; c < e; ++c) {
                     Rng rng = Rng::ForkStream(cust_base,
                                               static_cast<uint64_t>(c));
                     customer_rows[static_cast<size_t>(c)] =
                         Row{Value(c),
                             Value(rng.UniformInt(int64_t{0}, int64_t{24})),
                             Value(rng.Uniform(-999.99, 9999.99))};
                   }
                 });

    part_rows.resize(static_cast<size_t>(config.num_parts));
    ParallelRows(config.gen_threads, config.num_parts,
                 [&](int64_t b, int64_t e) {
                   for (int64_t p = b; p < e; ++p) {
                     Rng rng = Rng::ForkStream(part_base,
                                               static_cast<uint64_t>(p));
                     part_rows[static_cast<size_t>(p)] =
                         Row{Value(p), Value(rng.Uniform(900.0, 2100.0))};
                   }
                 });

    orders_rows.resize(static_cast<size_t>(config.num_orders));
    ParallelRows(config.gen_threads, config.num_orders,
                 [&](int64_t b, int64_t e) {
                   for (int64_t o = b; o < e; ++o) {
                     Rng rng = Rng::ForkStream(orders_base,
                                               static_cast<uint64_t>(o));
                     orders_rows[static_cast<size_t>(o)] =
                         Row{Value(o),
                             Value(static_cast<int64_t>(rng.UniformInt(
                                 static_cast<uint64_t>(
                                     config.num_customers)))),
                             Value(rng.Uniform(1000.0, 500000.0))};
                   }
                 });

    // Lineitem is two-pass because row offsets depend on every earlier
    // order's fanout: pass 1 draws the fanouts, a serial prefix sum fixes
    // the offsets, and pass 2 re-forks each order's stream (re-drawing the
    // fanout to keep the stream position identical) and fills its rows at
    // the known offset.
    std::vector<int64_t> fanouts(static_cast<size_t>(config.num_orders), 0);
    ParallelRows(config.gen_threads, config.num_orders,
                 [&](int64_t b, int64_t e) {
                   for (int64_t o = b; o < e; ++o) {
                     Rng rng = Rng::ForkStream(line_base,
                                               static_cast<uint64_t>(o));
                     fanouts[static_cast<size_t>(o)] =
                         static_cast<int64_t>(fanout_zipf.Sample(&rng));
                   }
                 });
    std::vector<int64_t> offsets(static_cast<size_t>(config.num_orders) + 1,
                                 0);
    for (int64_t o = 0; o < config.num_orders; ++o) {
      offsets[static_cast<size_t>(o) + 1] =
          offsets[static_cast<size_t>(o)] + fanouts[static_cast<size_t>(o)];
    }
    lineitem_rows.resize(static_cast<size_t>(offsets.back()));
    ParallelRows(
        config.gen_threads, config.num_orders, [&](int64_t b, int64_t e) {
          for (int64_t o = b; o < e; ++o) {
            Rng rng = Rng::ForkStream(line_base, static_cast<uint64_t>(o));
            const auto fanout = static_cast<int64_t>(fanout_zipf.Sample(&rng));
            int64_t at = offsets[static_cast<size_t>(o)];
            for (int64_t ln = 1; ln <= fanout; ++ln, ++at) {
              const auto partkey =
                  static_cast<int64_t>(part_zipf.Sample(&rng) - 1);
              lineitem_rows[static_cast<size_t>(at)] =
                  Row{Value(o), Value(ln), Value(partkey),
                      Value(rng.UniformInt(int64_t{1}, int64_t{50})),
                      Value(rng.Uniform(10.0, 105000.0)),
                      Value(rng.Uniform(0.0, 0.10)),
                      Value(rng.Uniform(0.0, 0.08))};
            }
          }
        });
  }

  TpchData data;
  data.lineitem = Relation::MakeBase("l", std::move(lineitem_schema),
                                     std::move(lineitem_rows));
  data.orders =
      Relation::MakeBase("o", std::move(orders_schema), std::move(orders_rows));
  data.customer = Relation::MakeBase("c", std::move(customer_schema),
                                     std::move(customer_rows));
  data.part =
      Relation::MakeBase("p", std::move(part_schema), std::move(part_rows));
  return data;
}

}  // namespace gus
