#include "hierarchy/recoding.h"

#include <algorithm>

namespace pgpub {

AttributeRecoding AttributeRecoding::Single(int32_t domain_size) {
  PGPUB_CHECK_GT(domain_size, 0);
  AttributeRecoding r;
  r.starts_ = {0};
  r.code_to_gen_.assign(domain_size, 0);
  return r;
}

AttributeRecoding AttributeRecoding::Identity(int32_t domain_size) {
  PGPUB_CHECK_GT(domain_size, 0);
  AttributeRecoding r;
  r.starts_.resize(domain_size);
  r.code_to_gen_.resize(domain_size);
  for (int32_t c = 0; c < domain_size; ++c) {
    r.starts_[c] = c;
    r.code_to_gen_[c] = c;
  }
  return r;
}

Result<AttributeRecoding> AttributeRecoding::FromStarts(
    int32_t domain_size, std::vector<int32_t> starts) {
  if (domain_size <= 0) {
    return Status::InvalidArgument("domain_size must be positive");
  }
  if (starts.empty() || starts[0] != 0) {
    return Status::InvalidArgument("starts must begin with 0");
  }
  for (size_t i = 1; i < starts.size(); ++i) {
    if (starts[i] <= starts[i - 1] || starts[i] >= domain_size) {
      return Status::InvalidArgument("starts must be ascending and within "
                                     "the domain");
    }
  }
  AttributeRecoding r;
  r.starts_ = std::move(starts);
  r.code_to_gen_.assign(domain_size, 0);
  r.RebuildIndex();
  return r;
}

void AttributeRecoding::RebuildIndex() {
  int32_t gen = 0;
  const int32_t n = domain_size();
  for (int32_t c = 0; c < n; ++c) {
    while (gen + 1 < num_gen_values() && starts_[gen + 1] <= c) ++gen;
    code_to_gen_[c] = gen;
  }
}

Interval AttributeRecoding::GenInterval(int32_t gen) const {
  PGPUB_CHECK(gen >= 0 && gen < num_gen_values());
  int32_t lo = starts_[gen];
  int32_t hi = (gen + 1 < num_gen_values()) ? starts_[gen + 1] - 1
                                            : domain_size() - 1;
  return Interval(lo, hi);
}

void AttributeRecoding::SplitAt(int32_t first_code_of_right) {
  PGPUB_CHECK(first_code_of_right > 0 &&
              first_code_of_right < domain_size());
  auto it =
      std::lower_bound(starts_.begin(), starts_.end(), first_code_of_right);
  if (it != starts_.end() && *it == first_code_of_right) return;  // exists
  starts_.insert(it, first_code_of_right);
  RebuildIndex();
}

std::string AttributeRecoding::Render(int32_t gen,
                                      const AttributeDomain& domain,
                                      const Taxonomy* taxonomy) const {
  Interval iv = GenInterval(gen);
  if (iv.IsSingleton()) return domain.CodeToString(iv.lo);
  if (taxonomy != nullptr) {
    int id = taxonomy->FindNode(iv);
    // Use the taxonomy label unless it is the auto-generated code-space
    // interval (Binary/UniformLevels builders), which reads wrong for
    // offset numeric domains — fall through to domain rendering there.
    if (id >= 0 && taxonomy->node(id).label != iv.ToString()) {
      return taxonomy->node(id).label;
    }
  }
  return "[" + domain.CodeToString(iv.lo) + ", " + domain.CodeToString(iv.hi) +
         "]";
}

GlobalRecoding GlobalRecoding::AllSingle(const Table& table,
                                         const std::vector<int>& qi_attrs) {
  GlobalRecoding g;
  g.qi_attrs = qi_attrs;
  for (int a : qi_attrs) {
    g.per_attr.push_back(AttributeRecoding::Single(table.domain(a).size()));
  }
  return g;
}

GlobalRecoding GlobalRecoding::AllIdentity(const Table& table,
                                           const std::vector<int>& qi_attrs) {
  GlobalRecoding g;
  g.qi_attrs = qi_attrs;
  for (int a : qi_attrs) {
    g.per_attr.push_back(
        AttributeRecoding::Identity(table.domain(a).size()));
  }
  return g;
}

uint64_t GlobalRecoding::SignatureOfRow(const Table& table,
                                        size_t row) const {
  uint64_t key = 0;
  for (size_t i = 0; i < qi_attrs.size(); ++i) {
    const uint64_t radix =
        static_cast<uint64_t>(per_attr[i].num_gen_values());
    const uint64_t gen = static_cast<uint64_t>(
        per_attr[i].GenOf(table.value(row, qi_attrs[i])));
    PGPUB_CHECK(key <= (UINT64_MAX - gen) / radix)
        << "QI signature space overflows uint64";
    key = key * radix + gen;
  }
  return key;
}

uint64_t GlobalRecoding::SignatureOfCodes(
    const std::vector<int32_t>& qi_codes) const {
  PGPUB_CHECK_EQ(qi_codes.size(), qi_attrs.size());
  uint64_t key = 0;
  for (size_t i = 0; i < qi_attrs.size(); ++i) {
    const uint64_t radix =
        static_cast<uint64_t>(per_attr[i].num_gen_values());
    const uint64_t gen = static_cast<uint64_t>(per_attr[i].GenOf(qi_codes[i]));
    PGPUB_CHECK(key <= (UINT64_MAX - gen) / radix)
        << "QI signature space overflows uint64";
    key = key * radix + gen;
  }
  return key;
}

std::vector<int32_t> GlobalRecoding::GenVectorOfRow(const Table& table,
                                                    size_t row) const {
  std::vector<int32_t> out(qi_attrs.size());
  for (size_t i = 0; i < qi_attrs.size(); ++i) {
    out[i] = per_attr[i].GenOf(table.value(row, qi_attrs[i]));
  }
  return out;
}

uint64_t GlobalRecoding::NumCells() const {
  uint64_t cells = 1;
  for (const auto& r : per_attr) {
    if (__builtin_mul_overflow(
            cells, static_cast<uint64_t>(r.num_gen_values()), &cells)) {
      return UINT64_MAX;
    }
  }
  return cells;
}

}  // namespace pgpub
