#include "dist/transport.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "est/wire.h"
#include "util/fault_inject.h"

namespace gus {

namespace {

constexpr char kFrameMagic[4] = {'G', 'U', 'S', 'F'};

/// Same corruption-allocation guard as the bundle parser.
constexpr uint64_t kSaneFrameBytes = uint64_t{1} << 40;

/// Frames `payload` into an in-memory byte string.
Result<std::string> FrameToString(std::string_view payload) {
  std::ostringstream framed(std::ios::binary);
  GUS_RETURN_NOT_OK(WriteFrame(&framed, payload));
  return std::move(framed).str();
}

/// \brief Reads exactly `n` bytes, looping on short reads.
///
/// Goes through the streambuf directly: socket-shaped buffers return
/// per-segment partial counts from xsgetn without raising eofbit, while
/// istream::read would latch failbit on the first short count and lose
/// the rest of the frame. A zero-progress sgetn means the stream truly
/// ended (or errored) — the default filebuf only short-returns at EOF.
size_t ReadFully(std::istream* in, char* buf, size_t n) {
  std::streambuf* sb = in->rdbuf();
  size_t total = 0;
  while (total < n) {
    const std::streamsize got =
        sb->sgetn(buf + total, static_cast<std::streamsize>(n - total));
    if (got <= 0) break;
    total += static_cast<size_t>(got);
  }
  if (total < n) in->setstate(std::ios::eofbit);
  return total;
}

/// Writes exactly `n` bytes, looping on short writes (the mirror of
/// ReadFully); zero progress is a hard stream failure.
bool WriteFully(std::ostream* out, const char* buf, size_t n) {
  std::streambuf* sb = out->rdbuf();
  size_t total = 0;
  while (total < n) {
    const std::streamsize put =
        sb->sputn(buf + total, static_cast<std::streamsize>(n - total));
    if (put <= 0) {
      out->setstate(std::ios::badbit);
      return false;
    }
    total += static_cast<size_t>(put);
  }
  return true;
}

}  // namespace

Status WriteFrame(std::ostream* out, std::string_view payload) {
  if (!WriteFully(out, kFrameMagic, sizeof(kFrameMagic))) {
    return Status::Internal("frame write failed");
  }
  WireWriter header;
  header.PutU64(payload.size());
  WireWriter tail;
  tail.PutU64(WireChecksum(payload));
  if (!WriteFully(out, header.buffer().data(), header.buffer().size()) ||
      !WriteFully(out, payload.data(), payload.size()) ||
      !WriteFully(out, tail.buffer().data(), tail.buffer().size())) {
    return Status::Internal("frame write failed");
  }
  if (!out->good()) return Status::Internal("frame write failed");
  return Status::OK();
}

// Frame damage is Unavailable, not InvalidArgument: a truncated or
// checksum-failed frame means the *transport* lost or mangled bytes in
// flight — re-executing the shard and re-sending is expected to succeed,
// so the retry layer must be able to tell this apart from divergent-state
// errors (seed/catalog/version skew) that no retry can fix.
Result<std::string> ReadFrame(std::istream* in, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  char magic[sizeof(kFrameMagic)];
  const size_t magic_got = ReadFully(in, magic, sizeof(magic));
  if (magic_got == 0) {
    // Zero bytes at a frame boundary: the peer closed between frames, not
    // inside one. Still Unavailable (there is no frame), but flagged so a
    // connection read loop can distinguish "done" from "damaged".
    if (clean_eof != nullptr) *clean_eof = true;
    return Status::Unavailable("clean end of stream (no frame)");
  }
  if (magic_got != sizeof(magic)) {
    return Status::Unavailable("truncated frame magic (mid-frame EOF)");
  }
  if (std::memcmp(magic, kFrameMagic, sizeof(magic)) != 0) {
    return Status::Unavailable("not a GUS frame (missing GUSF magic)");
  }
  char len_bytes[8];
  if (ReadFully(in, len_bytes, sizeof(len_bytes)) != sizeof(len_bytes)) {
    return Status::Unavailable("truncated frame header");
  }
  uint64_t len = 0;
  {
    WireReader r(std::string_view(len_bytes, sizeof(len_bytes)));
    GUS_RETURN_NOT_OK(r.ReadU64(&len));
  }
  if (len > kSaneFrameBytes) {
    return Status::Unavailable("implausible frame length (corrupt?)");
  }
  std::string payload(len, '\0');
  if (ReadFully(in, payload.data(), len) != len) {
    return Status::Unavailable("truncated frame payload");
  }
  char sum_bytes[8];
  if (ReadFully(in, sum_bytes, sizeof(sum_bytes)) != sizeof(sum_bytes)) {
    return Status::Unavailable("truncated frame checksum");
  }
  uint64_t stored = 0;
  {
    WireReader r(std::string_view(sum_bytes, sizeof(sum_bytes)));
    GUS_RETURN_NOT_OK(r.ReadU64(&stored));
  }
  if (stored != WireChecksum(payload)) {
    return Status::Unavailable("frame checksum mismatch (corrupt)");
  }
  return payload;
}

Status LocalTransport::Send(int shard_index, std::string payload) {
  // The mailbox stores *framed* bytes: both transports share the frame
  // codec as their damage-detection layer, so injected wire faults
  // (corrupt/truncate) surface identically — as Unavailable at Receive —
  // whether the bytes crossed a file or stayed in memory.
  GUS_ASSIGN_OR_RETURN(std::string framed, FrameToString(payload));
  bool dropped = false;
  GUS_RETURN_NOT_OK(FaultInjector::Global()->MutatePayload(
      "transport.send", shard_index, &framed, &dropped));
  if (dropped) return Status::OK();  // lost in flight; Receive will miss it
  std::lock_guard<std::mutex> lock(mu_);
  if (!inbox_.emplace(shard_index, std::move(framed)).second) {
    return Status::InvalidArgument("shard " + std::to_string(shard_index) +
                                   " already sent its state");
  }
  return Status::OK();
}

Result<std::string> LocalTransport::Receive(int shard_index) {
  std::string framed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inbox_.find(shard_index);
    if (it == inbox_.end()) {
      return Status::Unavailable("no state received for shard " +
                                 std::to_string(shard_index));
    }
    // Consume the payload: bundles can carry megabytes of retained-set
    // state and every gather reads each shard exactly once, so keeping a
    // second copy in the mailbox would double the coordinator's peak
    // memory for nothing. (It also means a retried shard can Send again.)
    framed = std::move(it->second);
    inbox_.erase(it);
  }
  // The injected receive fault fires *after* consumption: a failed read
  // loses the in-flight message (as a real one would), so the re-dispatch
  // path re-Sends into an empty slot instead of tripping the
  // duplicate-send guard.
  GUS_RETURN_NOT_OK(
      FaultInjector::Global()->Hit("transport.receive", shard_index));
  std::istringstream in(std::move(framed), std::ios::binary);
  return ReadFrame(&in);
}

std::string FileTransport::ShardPath(int shard_index) const {
  return dir_ + "/shard-" + std::to_string(shard_index) + ".gusb";
}

Status FileTransport::Send(int shard_index, std::string payload) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create transport directory '" + dir_ +
                            "': " + ec.message());
  }
  GUS_ASSIGN_OR_RETURN(std::string framed, FrameToString(payload));
  bool dropped = false;
  GUS_RETURN_NOT_OK(FaultInjector::Global()->MutatePayload(
      "transport.send", shard_index, &framed, &dropped));
  if (dropped) return Status::OK();
  // Write-temp / verify / atomic-rename: the final shard path either holds
  // a complete frame or does not exist. A worker killed mid-write leaves
  // only the .tmp file, which the coordinator reads as a *missing* shard
  // (retryable) — never as corruption of a completed one.
  const std::string final_path = ShardPath(shard_index);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open '" + tmp_path + "' for writing");
    }
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    out.close();
    if (!out) return Status::Internal("frame flush failed");
  }
  // A kill injected here models death after the write but before publish:
  // the bundle must stay invisible.
  GUS_RETURN_NOT_OK(
      FaultInjector::Global()->Hit("transport.file.write", shard_index));
  // Re-read-verify before publishing: a torn or bit-flipped write is
  // caught while the *writer* can still retry, instead of surfacing later
  // as mystery corruption at the gather.
  {
    std::ifstream back(tmp_path, std::ios::binary);
    std::ostringstream readback(std::ios::binary);
    readback << back.rdbuf();
    if (!back.good() && !back.eof()) {
      return Status::Unavailable("cannot re-read '" + tmp_path +
                                 "' for verification");
    }
    if (std::move(readback).str() != framed) {
      return Status::Unavailable("torn write detected verifying '" +
                                 tmp_path + "'; bundle not published");
    }
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::Unavailable("cannot publish '" + final_path +
                               "': " + ec.message());
  }
  return Status::OK();
}

Result<std::string> FileTransport::Receive(int shard_index) {
  GUS_RETURN_NOT_OK(
      FaultInjector::Global()->Hit("transport.receive", shard_index));
  std::ifstream in(ShardPath(shard_index), std::ios::binary);
  if (!in) {
    return Status::Unavailable("no state file for shard " +
                               std::to_string(shard_index) + " at '" +
                               ShardPath(shard_index) + "'");
  }
  return ReadFrame(&in);
}

}  // namespace gus
