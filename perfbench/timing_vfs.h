// A timing vfs::Vfs decorator for the traced run: forwards every call to
// a base backend and adds up the time spent in writes and in syncs
// (file fsync and directory fsync), plus the bytes written, recording a
// span around each.
#ifndef XARCH_PERFBENCH_TIMING_VFS_H_
#define XARCH_PERFBENCH_TIMING_VFS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tracer.h"
#include "vfs/vfs.h"

namespace perfbench {

class TimingVfs final : public xarch::vfs::Vfs {
 public:
  struct Totals {
    int64_t write_ns = 0;
    int64_t sync_ns = 0;
    uint64_t bytes_written = 0;
  };

  /// `base` and `tracer` (which may be null) must outlive this wrapper.
  TimingVfs(xarch::vfs::Vfs* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  Totals totals() const {
    return {write_ns_.load(), sync_ns_.load(), bytes_written_.load()};
  }

  std::string name() const override { return "timing(" + base_->name() + ")"; }

  xarch::StatusOr<std::unique_ptr<xarch::vfs::ReadableFile>> OpenReadable(
      const std::string& path) override {
    return base_->OpenReadable(path);
  }
  xarch::StatusOr<std::unique_ptr<xarch::vfs::RandomAccessFile>>
  OpenRandomAccess(const std::string& path) override {
    return base_->OpenRandomAccess(path);
  }
  xarch::StatusOr<std::unique_ptr<xarch::vfs::WritableFile>> OpenWritable(
      const std::string& path, xarch::vfs::WriteMode mode) override {
    auto file = base_->OpenWritable(path, mode);
    if (!file.ok()) return file.status();
    return std::unique_ptr<xarch::vfs::WritableFile>(
        new File(this, std::move(*file)));
  }
  xarch::StatusOr<std::unique_ptr<xarch::vfs::MappedFile>> Map(
      const std::string& path) override {
    return base_->Map(path);
  }
  xarch::StatusOr<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  xarch::Status Rename(const std::string& from,
                       const std::string& to) override {
    return base_->Rename(from, to);
  }
  xarch::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  xarch::StatusOr<bool> Exists(const std::string& path) override {
    return base_->Exists(path);
  }
  xarch::StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  xarch::Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  xarch::Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  xarch::Status RemoveTree(const std::string& path) override {
    return base_->RemoveTree(path);
  }
  xarch::StatusOr<std::vector<std::string>> List(
      const std::string& dir) override {
    return base_->List(dir);
  }
  xarch::Status SyncDir(const std::string& path) override {
    ScopedSpan span(tracer_, "vfs.sync");
    const int64_t t0 = Now();
    xarch::Status st = base_->SyncDir(path);
    sync_ns_.fetch_add(Now() - t0, std::memory_order_relaxed);
    return st;
  }

 private:
  class File final : public xarch::vfs::WritableFile {
   public:
    File(TimingVfs* owner, std::unique_ptr<xarch::vfs::WritableFile> base)
        : owner_(owner), base_(std::move(base)) {}

    xarch::Status Append(std::string_view data) override {
      ScopedSpan span(owner_->tracer_, "vfs.write");
      const int64_t t0 = Now();
      xarch::Status st = base_->Append(data);
      owner_->write_ns_.fetch_add(Now() - t0, std::memory_order_relaxed);
      if (st.ok()) {
        owner_->bytes_written_.fetch_add(data.size(),
                                         std::memory_order_relaxed);
      }
      return st;
    }
    xarch::Status Sync() override {
      ScopedSpan span(owner_->tracer_, "vfs.sync");
      const int64_t t0 = Now();
      xarch::Status st = base_->Sync();
      owner_->sync_ns_.fetch_add(Now() - t0, std::memory_order_relaxed);
      return st;
    }
    xarch::Status Truncate(uint64_t size) override {
      return base_->Truncate(size);
    }
    xarch::Status Close() override { return base_->Close(); }

   private:
    TimingVfs* owner_;
    std::unique_ptr<xarch::vfs::WritableFile> base_;
  };

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  xarch::vfs::Vfs* base_;
  Tracer* tracer_;
  std::atomic<int64_t> write_ns_{0};
  std::atomic<int64_t> sync_ns_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace perfbench

#endif  // XARCH_PERFBENCH_TIMING_VFS_H_
