#include "runtime/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "telemetry/telemetry.hpp"

namespace pima::runtime {

namespace {

constexpr char kMagic[8] = {'P', 'I', 'M', 'A', 'C', 'K', 'P', 'T'};

[[noreturn]] void corrupt(const std::string& path, const std::string& why) {
  throw CorruptCheckpointError("corrupt checkpoint " + path + ": " + why);
}

// ---- little-endian primitive serialization --------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void bytes(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  const std::string& str() const { return buf_; }

 private:
  std::string buf_;
};

class Reader {
 public:
  Reader(const std::string& buf, const std::string& path)
      : buf_(buf), path_(path) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() {
    const char* p = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const char* p = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string bytes(std::size_t n) { return std::string(take(n), n); }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  const char* take(std::size_t n) {
    if (pos_ + n > buf_.size())
      corrupt(path_, "truncated payload (wanted " + std::to_string(n) +
                         " bytes at offset " + std::to_string(pos_) + ")");
    const char* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }

  const std::string& buf_;
  std::string path_;
  std::size_t pos_ = 0;
};

// ---- field serializers ----------------------------------------------------

void put_fingerprint(Writer& w, const CheckpointFingerprint& f) {
  w.u64(f.k);
  w.u64(f.hash_shards);
  w.u64(f.devices);
  w.u32(f.graph_intervals);
  w.u8(f.use_multiplicity ? 1 : 0);
  w.u8(f.euler_contigs ? 1 : 0);
  w.u8(f.traversal);
  w.u64(f.rows);
  w.u64(f.compute_rows);
  w.u64(f.columns);
  w.u64(f.subarrays_per_mat);
  w.u64(f.mats_per_bank);
  w.u64(f.banks);
  w.f64(f.fault_variation);
  w.u64(f.fault_seed);
  w.f64(f.fault_retention);
  w.f64(f.fault_weak_rows);
  w.u8(f.recovery_mode);
}

CheckpointFingerprint get_fingerprint(Reader& r) {
  CheckpointFingerprint f;
  f.k = r.u64();
  f.hash_shards = r.u64();
  f.devices = r.u64();
  f.graph_intervals = r.u32();
  f.use_multiplicity = r.u8() != 0;
  f.euler_contigs = r.u8() != 0;
  f.traversal = r.u8();
  f.rows = r.u64();
  f.compute_rows = r.u64();
  f.columns = r.u64();
  f.subarrays_per_mat = r.u64();
  f.mats_per_bank = r.u64();
  f.banks = r.u64();
  f.fault_variation = r.f64();
  f.fault_seed = r.u64();
  f.fault_retention = r.f64();
  f.fault_weak_rows = r.f64();
  f.recovery_mode = r.u8();
  return f;
}

void put_device_stats(Writer& w, const dram::DeviceStats& s) {
  w.f64(s.time_ns);
  w.f64(s.serial_ns);
  w.f64(s.energy_pj);
  w.u64(s.commands);
  w.u64(s.subarrays_used);
}

dram::DeviceStats get_device_stats(Reader& r) {
  dram::DeviceStats s;
  s.time_ns = r.f64();
  s.serial_ns = r.f64();
  s.energy_pj = r.f64();
  s.commands = r.u64();
  s.subarrays_used = r.u64();
  return s;
}

void put_fault_stats(Writer& w, const FaultStats& s) {
  w.u64(s.injected);
  w.u64(s.detected);
  w.u64(s.retried);
  w.u64(s.remapped);
  w.u64(s.escaped);
  w.u64(s.vote_corrections);
  w.u64(s.host_fallbacks);
  w.u64(s.degraded_subarrays);
}

FaultStats get_fault_stats(Reader& r) {
  FaultStats s;
  s.injected = r.u64();
  s.detected = r.u64();
  s.retried = r.u64();
  s.remapped = r.u64();
  s.escaped = r.u64();
  s.vote_corrections = r.u64();
  s.host_fallbacks = r.u64();
  s.degraded_subarrays = r.u64();
  return s;
}

void put_kmer_list(
    Writer& w,
    const std::vector<std::pair<assembly::Kmer, std::uint32_t>>& list) {
  w.u64(list.size());
  for (const auto& [km, freq] : list) {
    w.u64(km.packed());
    w.u8(static_cast<std::uint8_t>(km.k()));
    w.u32(freq);
  }
}

std::vector<std::pair<assembly::Kmer, std::uint32_t>> get_kmer_list(
    Reader& r, const std::string& path) {
  const std::uint64_t n = r.u64();
  std::vector<std::pair<assembly::Kmer, std::uint32_t>> list;
  list.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t packed = r.u64();
    const std::uint8_t k = r.u8();
    const std::uint32_t freq = r.u32();
    if (k < 1 || k > assembly::Kmer::kMaxK ||
        (k < assembly::Kmer::kMaxK && (packed >> (2 * k)) != 0))
      corrupt(path, "k-mer entry " + std::to_string(i) + " out of range");
    list.emplace_back(assembly::Kmer(packed, k), freq);
  }
  return list;
}

void put_contigs(Writer& w, const std::vector<dna::Sequence>& contigs) {
  w.u64(contigs.size());
  for (const auto& c : contigs) {
    const std::string s = c.to_string();
    w.u64(s.size());
    w.bytes(s.data(), s.size());
  }
}

std::vector<dna::Sequence> get_contigs(Reader& r, const std::string& path) {
  const std::uint64_t n = r.u64();
  std::vector<dna::Sequence> contigs;
  contigs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t len = r.u64();
    const std::string s = r.bytes(len);
    for (const char c : s)
      if (!dna::is_valid_char(c))
        corrupt(path, "contig " + std::to_string(i) + " has a non-ACGT byte");
    contigs.push_back(dna::Sequence::from_string(s));
  }
  return contigs;
}

std::string serialize_payload(const PipelineSnapshot& snap) {
  Writer w;
  put_fingerprint(w, snap.fingerprint);
  w.u32(snap.stages_done);
  put_device_stats(w, snap.hashmap);
  put_device_stats(w, snap.debruijn);
  put_device_stats(w, snap.traverse);
  put_fault_stats(w, snap.fault_stats);
  w.u64(snap.distinct_kmers);
  put_kmer_list(w, snap.kmer_entries);
  put_kmer_list(w, snap.graph_edges);
  put_contigs(w, snap.contigs);
  return w.str();
}

PipelineSnapshot deserialize_payload(const std::string& payload,
                                     const std::string& path) {
  Reader r(payload, path);
  PipelineSnapshot snap;
  snap.fingerprint = get_fingerprint(r);
  snap.stages_done = r.u32();
  if (snap.stages_done < 1 || snap.stages_done > 3)
    corrupt(path, "stage count " + std::to_string(snap.stages_done) +
                      " out of range");
  snap.hashmap = get_device_stats(r);
  snap.debruijn = get_device_stats(r);
  snap.traverse = get_device_stats(r);
  snap.fault_stats = get_fault_stats(r);
  snap.distinct_kmers = r.u64();
  snap.kmer_entries = get_kmer_list(r, path);
  snap.graph_edges = get_kmer_list(r, path);
  snap.contigs = get_contigs(r, path);
  if (!r.exhausted()) corrupt(path, "trailing bytes after payload");
  return snap;
}

// POSIX write-the-whole-buffer with IoError on failure. Routed through
// the fsio shim so chaos tests can inject ENOSPC/short writes/torn-write
// crash points into checkpoint persistence (site "checkpoint").
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  while (size > 0) {
    const ssize_t n = fsio::write(fd, data, size, "checkpoint");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("write failed for " + path + ": " +
                    std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

// Header + atomic-rename write.
void write_checkpoint_file(const std::string& path,
                           const std::string& payload) {
  Writer header;
  header.bytes(kMagic, 8);
  header.u32(kCheckpointVersion);
  header.u64(payload.size());
  header.u32(crc32(payload.data(), payload.size()));

  const std::string tmp = path + ".tmp";
  const int fd =
      fsio::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644, "checkpoint");
  if (fd < 0)
    throw IoError("cannot create " + tmp + ": " + std::strerror(errno));
  try {
    write_all(fd, header.str().data(), header.str().size(), tmp);
    write_all(fd, payload.data(), payload.size(), tmp);
    if (fsio::fsync(fd, "checkpoint") != 0)
      throw IoError("fsync failed for " + tmp + ": " + std::strerror(errno));
  } catch (...) {
    ::close(fd);
    fsio::unlink(tmp.c_str(), "checkpoint");
    throw;
  }
  ::close(fd);
  if (fsio::rename(tmp.c_str(), path.c_str(), "checkpoint") != 0) {
    const int err = errno;
    fsio::unlink(tmp.c_str(), "checkpoint");
    throw IoError("cannot rename " + tmp + " to " + path + ": " +
                  std::strerror(err));
  }
  // Durability of the rename itself: fsync the containing directory. A
  // failure is survivable but counted + logged once (fsio satellite).
  fsio::fsync_parent_dir(path, "checkpoint");
}

// Header validation; returns the CRC-checked payload.
std::string read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open checkpoint: " + path);
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;
  if (file.size() < kHeaderSize) corrupt(path, "shorter than the header");
  if (std::memcmp(file.data(), kMagic, 8) != 0) corrupt(path, "bad magic");
  Reader header(file, path);
  (void)header.bytes(8);
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion)
    corrupt(path, "version " + std::to_string(version) + " (expected " +
                      std::to_string(kCheckpointVersion) + ")");
  const std::uint64_t payload_size = header.u64();
  const std::uint32_t stored_crc = header.u32();
  if (file.size() - kHeaderSize != payload_size)
    corrupt(path, "payload size mismatch (header says " +
                      std::to_string(payload_size) + ", file holds " +
                      std::to_string(file.size() - kHeaderSize) + ")");
  const std::string payload = file.substr(kHeaderSize);
  const std::uint32_t actual_crc = crc32(payload.data(), payload.size());
  if (actual_crc != stored_crc) corrupt(path, "checksum mismatch");
  return payload;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string CheckpointFingerprint::diff(
    const CheckpointFingerprint& o) const {
  if (k != o.k) return "k";
  if (hash_shards != o.hash_shards) return "hash_shards";
  if (devices != o.devices) return "devices";
  if (graph_intervals != o.graph_intervals) return "graph_intervals";
  if (use_multiplicity != o.use_multiplicity) return "use_multiplicity";
  if (euler_contigs != o.euler_contigs) return "euler_contigs";
  if (traversal != o.traversal) return "traversal";
  if (rows != o.rows || compute_rows != o.compute_rows ||
      columns != o.columns || subarrays_per_mat != o.subarrays_per_mat ||
      mats_per_bank != o.mats_per_bank || banks != o.banks)
    return "device geometry";
  if (fault_variation != o.fault_variation) return "fault variation";
  if (fault_seed != o.fault_seed) return "fault seed";
  if (fault_retention != o.fault_retention) return "fault retention";
  if (fault_weak_rows != o.fault_weak_rows) return "fault weak rows";
  if (recovery_mode != o.recovery_mode) return "recovery mode";
  return "";
}

void save_checkpoint(const std::string& path, const PipelineSnapshot& snap) {
  PIMA_TEL_SPAN("checkpoint:save");
#if PIMA_TELEMETRY
  const auto t0 = std::chrono::steady_clock::now();
  struct Timer {
    std::chrono::steady_clock::time_point t0;
    ~Timer() {
      if (!telemetry::metrics_enabled()) return;
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      telemetry::metrics()
          .histogram("pima_checkpoint_write_seconds",
                     "checkpoint write+fsync duration",
                     {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0})
          .observe(secs);
    }
  } timer{t0};
#endif
  write_checkpoint_file(path, serialize_payload(snap));
}

PipelineSnapshot load_checkpoint(const std::string& path) {
  return deserialize_payload(read_checkpoint_file(path), path);
}

void validate_compatible(const PipelineSnapshot& snap,
                         const CheckpointFingerprint& current) {
  const std::string field = snap.fingerprint.diff(current);
  if (!field.empty())
    throw CorruptCheckpointError(
        "checkpoint incompatible with this run: " + field +
        " differs from the interrupted run — resume with the original "
        "configuration or start fresh without --resume");
}

}  // namespace pima::runtime
