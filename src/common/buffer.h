// Bounds-checked binary serialization used for every Raincore wire format.
//
// All integers are encoded little-endian with explicit widths so that the
// same byte stream is valid across the simulated network and real UDP
// sockets. Readers never throw: a malformed packet flips the reader into a
// failed state that callers must check with ok().
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace raincore {

using Bytes = std::vector<std::uint8_t>;

/// Wire slack reserved by FrameBuilder around every session payload
/// (sk_buff-style): enough headroom for the transport data header
/// [type u8][group u16][epoch u32][seq u64] to be prepended in place and
/// enough tailroom for the trailing CRC32C u32 checksum to be appended in
/// place.
inline constexpr std::size_t kWireHeadroom = 15;
inline constexpr std::size_t kWireTailroom = 4;

/// Process-wide cost accounting for the wire path: every layer that
/// allocates a wire buffer or copies a payload byte range charges these
/// counters (frame builds, receive-path copy-outs, simulator duplication).
/// Single-loop diagnostic instruments — benches and the perf regression
/// tests read deltas around a measured section; not thread-safe.
struct WireStats {
  Counter allocs;        ///< wire buffer allocations
  Counter copies;        ///< payload byte ranges copied into a fresh buffer
  Counter bytes_copied;  ///< total payload bytes memcpy'd
};
WireStats& wire_stats();

struct SliceFramed;

/// Immutable ref-counted view into shared byte storage: a control block
/// (shared_ptr) plus an offset/length window. Slices are the currency of
/// the zero-copy wire path — one encoded token frame is shared by every
/// retransmission, by both interfaces under SendStrategy::kParallel, and
/// by simulator duplication; decoded piggyback messages alias the inbound
/// datagram instead of copying out.
///
/// The view itself never mutates shared bytes. The two mutation doors both
/// require sole ownership: expand() widens a view into its own slack to
/// frame a payload in place, and mutable_data()/cow() give the simulator's
/// corruption fault a copy-on-write handle so an in-flight bit flip can
/// never reach the sender's retained retry buffer.
class Slice {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Slice() = default;

  /// Takes ownership of an existing buffer (no byte copy).
  static Slice take(Bytes b) { return adopt(std::move(b), 0, npos); }

  /// Wraps `store` and views [off, off+len); len=npos means "to the end".
  static Slice adopt(Bytes store, std::size_t off, std::size_t len = npos);

  /// Copies the byte range into fresh sole-owner storage.
  static Slice copy(const std::uint8_t* p, std::size_t n);
  static Slice copy(const Bytes& b) { return copy(b.data(), b.size()); }

  const std::uint8_t* data() const {
    return store_ ? store_->data() + off_ : nullptr;
  }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  /// Aliasing sub-view [pos, pos+n), clamped to this view's bounds.
  Slice subslice(std::size_t pos, std::size_t n = npos) const {
    Slice s(*this);
    pos = std::min(pos, len_);
    s.off_ += pos;
    s.len_ = std::min(n, len_ - pos);
    return s;
  }

  /// Slack available in the shared storage before / after this view.
  std::size_t headroom() const { return off_; }
  std::size_t tailroom() const {
    return store_ ? store_->size() - off_ - len_ : 0;
  }

  /// True when this view is the storage's only owner.
  bool unique() const { return store_ && store_.use_count() == 1; }
  long use_count() const { return store_ ? store_.use_count() : 0; }

  /// Copy-out (always copies; not charged to wire_stats — callers that
  /// copy on the wire path go through Slice::copy instead).
  Bytes to_bytes() const { return Bytes(begin(), end()); }
  std::string to_string() const {
    return std::string(reinterpret_cast<const char*>(data()), len_);
  }

  /// In-place framing (sk_buff push/put). When this view is the sole owner
  /// of its storage and the slack fits, returns a view widened by `hdr`
  /// headroom bytes and `tail` tailroom bytes plus writable pointers to the
  /// new regions; returns nullopt (leaving *this untouched) when the slack
  /// is missing or the storage is shared, and the caller must copy.
  using Framed = SliceFramed;
  std::optional<SliceFramed> expand(std::size_t hdr, std::size_t tail) const;

  /// Copy-on-write: consumes this view and returns one that solely owns
  /// its storage (the same storage when it already did, a compacted deep
  /// copy otherwise) — safe to mutate through mutable_data() without any
  /// other view observing the change.
  Slice cow() && {
    if (unique()) return std::move(*this);
    return copy(data(), len_);
  }

  /// Writable bytes of the view; requires sole ownership (see cow()).
  std::uint8_t* mutable_data() {
    assert(unique() && "mutating a shared slice");
    return store_->data() + off_;
  }

  /// Content equality (the view's bytes, not the storage identity).
  bool operator==(const Slice& o) const {
    return len_ == o.len_ &&
           (len_ == 0 || std::memcmp(data(), o.data(), len_) == 0);
  }
  bool operator==(const Bytes& o) const {
    return len_ == o.size() &&
           (len_ == 0 || std::memcmp(data(), o.data(), len_) == 0);
  }

 private:
  std::shared_ptr<Bytes> store_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

/// Result of Slice::expand(): the widened frame view plus writable pointers
/// into the newly claimed headroom/tailroom regions.
struct SliceFramed {
  Slice frame;
  std::uint8_t* head = nullptr;  ///< `hdr` writable bytes before the view
  std::uint8_t* tail = nullptr;  ///< `tail` writable bytes after the view
};

/// Appends fixed-width little-endian values to a growing byte vector.
///
/// A writer constructed with slack (headroom/tailroom) reserves those
/// regions around the body it builds; finish() then moves the buffer into
/// ref-counted storage and returns the body as a Slice whose slack lower
/// layers consume via Slice::expand() — the encode-once wire path. Plain
/// writers (no slack) keep the historical take() contract.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  ByteWriter(std::size_t headroom, std::size_t tailroom,
             std::size_t body_reserve = 0)
      : headroom_(headroom), tailroom_(tailroom) {
    buf_.reserve(headroom + body_reserve + tailroom);
    buf_.resize(headroom, 0);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(bits);
  }

  /// Length-prefixed (u32) raw byte blob.
  void bytes(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }
  void bytes(const Slice& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  /// Unprefixed raw append.
  void raw(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  /// Discards the body but keeps the allocated capacity (and headroom
  /// slack), so one writer can encode a stream of records alloc-free.
  void clear() { buf_.resize(headroom_); }

  /// Body size (excludes any slack).
  std::size_t size() const { return buf_.size() - headroom_; }
  const Bytes& view() const {
    assert(headroom_ == 0 && "view() on a slack writer includes headroom");
    return buf_;
  }
  Bytes take() {
    assert(headroom_ == 0 && tailroom_ == 0 && "use finish() on slack writers");
    return std::move(buf_);
  }

  /// Appends the tailroom slack, moves the buffer into ref-counted storage
  /// and returns the body view (headroom/tailroom retained as slack). The
  /// writer is consumed.
  Slice finish() {
    std::size_t body = size();
    buf_.resize(buf_.size() + tailroom_, 0);
    return Slice::adopt(std::move(buf_), headroom_, body);
  }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
  std::size_t headroom_ = 0;
  std::size_t tailroom_ = 0;
};

/// ByteWriter with the standard wire slack: every payload built through a
/// FrameBuilder can be framed in place by the transport (header prepended
/// into headroom, checksum appended into tailroom) — no re-copy between
/// the session encode and the datagram on the wire.
class FrameBuilder : public ByteWriter {
 public:
  explicit FrameBuilder(std::size_t body_reserve = 0)
      : ByteWriter(kWireHeadroom, kWireTailroom, body_reserve) {}
};

/// Reads fixed-width little-endian values; enters a sticky failed state on
/// any out-of-bounds access instead of throwing.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  /// Reader over a slice: slice() reads alias the backing storage instead
  /// of copying (and keep it alive via the retained base).
  explicit ByteReader(const Slice& s)
      : data_(s.data()), size_(s.size()), base_(s), has_base_(true) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }
  double f64() {
    std::uint64_t bits = read_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Bytes bytes() {
    std::uint32_t n = u32();
    Bytes out;
    if (!take_raw(n, out)) return {};
    return out;
  }

  /// Length-prefixed blob as a Slice: an aliasing view of the backing
  /// storage when this reader was built over one (zero-copy), a charged
  /// copy into fresh storage otherwise.
  Slice slice() {
    std::uint32_t n = u32();
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return {};
    }
    Slice out = has_base_ ? base_.subslice(pos_, n)
                          : Slice::copy(data_ + pos_, n);
    pos_ += n;
    return out;
  }

  std::string str() {
    std::uint32_t n = u32();
    Bytes out;
    if (!take_raw(n, out)) return {};
    return std::string(out.begin(), out.end());
  }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  template <typename T>
  T read_le() {
    if (!ok_ || size_ - pos_ < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  bool take_raw(std::size_t n, Bytes& out) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    out.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  Slice base_;
  bool has_base_ = false;
};

}  // namespace raincore
