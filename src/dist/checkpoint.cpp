#include "dist/checkpoint.hpp"

#include <limits>

#include "common/bytes.hpp"
#include "common/vfs.hpp"

namespace udb {

namespace {

// Spill layout: the sealed envelope of common/bytes.hpp (magic "UDBC",
// version 1) around a payload of u32 nranks, then per logical rank the three
// phase slots in order, each a u8 valid flag followed by length-prefixed
// arrays. Same rejection discipline as the model snapshot codec: size
// mismatch, CRC mismatch, or any length that disagrees with the bytes
// present is DATA_LOSS, never a partial store.
constexpr char kCkptMagic[4] = {'U', 'D', 'B', 'C'};
constexpr std::uint32_t kCkptVersion = 1;

template <typename T>
void put_array(ByteWriter& w, const std::vector<T>& v) {
  w.u64(v.size());
  w.raw(v.data(), v.size() * sizeof(T));
}

template <typename T>
[[nodiscard]] bool get_array(ByteReader& r, std::vector<T>& v) {
  std::uint64_t n = 0;
  if (!r.u64(n)) return false;
  if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) return false;
  return r.array(v, static_cast<std::size_t>(n));
}

}  // namespace

Status CheckpointStore::save_to(const std::string& path) const {
  ByteWriter payload;
  payload.u32(static_cast<std::uint32_t>(nranks()));
  for (std::size_t r = 0; r < partition_.size(); ++r) {
    const PartitionCkpt& p = partition_[r];
    payload.u8(p.valid ? 1 : 0);
    put_array(payload, p.coords);
    put_array(payload, p.gids);
    const HaloCkpt& h = halo_[r];
    payload.u8(h.valid ? 1 : 0);
    put_array(payload, h.coords);
    put_array(payload, h.gids);
    put_array(payload, h.owner_logical);
    const LocalCkpt& l = local_[r];
    payload.u8(l.valid ? 1 : 0);
    put_array(payload, l.uf_root);
    put_array(payload, l.is_core);
    put_array(payload, l.assigned);
  }

  const std::vector<std::uint8_t> out =
      seal(kCkptMagic, kCkptVersion, payload.data());
  return vfs::write_file_atomic(path, out.data(), out.size());
}

StatusOr<CheckpointStore> CheckpointStore::load_from(const std::string& path) {
  auto bytes = vfs::read_file(path);
  if (!bytes.ok()) return bytes.status();
  auto payload = open_sealed(*bytes, kCkptMagic, kCkptVersion,
                             "checkpoint spill " + path);
  if (!payload.ok()) return payload.status();

  ByteReader r(*payload);
  std::uint32_t nranks = 0;
  if (!r.u32(nranks) || nranks == 0 ||
      nranks > std::numeric_limits<int>::max())
    return DataLossError("checkpoint spill " + path + " has a bad rank count");

  CheckpointStore store(static_cast<int>(nranks));
  for (std::uint32_t rank = 0; rank < nranks; ++rank) {
    const int ri = static_cast<int>(rank);
    std::uint8_t valid = 0;
    PartitionCkpt& p = store.partition(ri);
    if (!r.u8(valid) || valid > 1 || !get_array(r, p.coords) ||
        !get_array(r, p.gids))
      return DataLossError("checkpoint spill " + path +
                           " truncated in partition slot " +
                           std::to_string(rank));
    p.valid = valid == 1;
    HaloCkpt& h = store.halo(ri);
    if (!r.u8(valid) || valid > 1 || !get_array(r, h.coords) ||
        !get_array(r, h.gids) || !get_array(r, h.owner_logical))
      return DataLossError("checkpoint spill " + path +
                           " truncated in halo slot " + std::to_string(rank));
    h.valid = valid == 1;
    LocalCkpt& l = store.local(ri);
    if (!r.u8(valid) || valid > 1 || !get_array(r, l.uf_root) ||
        !get_array(r, l.is_core) || !get_array(r, l.assigned))
      return DataLossError("checkpoint spill " + path +
                           " truncated in local slot " + std::to_string(rank));
    l.valid = valid == 1;
  }
  if (!r.done())
    return DataLossError("checkpoint spill " + path +
                         " has trailing bytes inside its payload");
  return store;
}

}  // namespace udb
