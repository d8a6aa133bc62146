#include "engine/fingerprint.h"

namespace pgpub::engine {

void Fingerprinter::MixI32Span(const int32_t* data, size_t n) {
  Mix(n);
  // Two codes per mixed word; sign-extension-free packing.
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    Mix((static_cast<uint64_t>(static_cast<uint32_t>(data[i])) << 32) |
        static_cast<uint64_t>(static_cast<uint32_t>(data[i + 1])));
  }
  if (i < n) Mix(static_cast<uint64_t>(static_cast<uint32_t>(data[i])));
}

uint64_t FingerprintPublishedTable(const PublishedTable& published) {
  Fingerprinter fp;
  fp.Mix(published.num_rows());
  fp.Mix(static_cast<uint64_t>(published.num_qi_attrs()));
  fp.MixDouble(published.retention_p());
  fp.Mix(static_cast<uint64_t>(published.k()));
  for (size_t row = 0; row < published.num_rows(); ++row) {
    for (int q = 0; q < published.num_qi_attrs(); ++q) {
      fp.Mix(static_cast<uint64_t>(
          static_cast<uint32_t>(published.qi_gen(row, q))));
    }
    fp.Mix(static_cast<uint64_t>(
        static_cast<uint32_t>(published.sensitive(row))));
    fp.Mix(static_cast<uint64_t>(published.group_size(row)));
  }
  return fp.digest();
}

}  // namespace pgpub::engine
