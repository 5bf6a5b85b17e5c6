#include "core/changes.h"

namespace xarch::core {

namespace {

class ChangeCollector {
 public:
  ChangeCollector(const ArchiveView& view, Version from, Version to)
      : view_(view), from_(from), to_(to) {}

  /// Walks a node whose parent exists at both versions, so an unstamped
  /// node does too (the root's stamp covers every version).
  void Walk(ArchiveView::NodeId node, const std::string& parent_path) {
    const bool stamped = view_.HasStamp(node);
    const bool at_from = !stamped || view_.StampContains(node, from_);
    const bool at_to = !stamped || view_.StampContains(node, to_);
    if (!at_from && !at_to) return;
    if (at_from != at_to) {
      // Appeared or disappeared: report the element once, outermost.
      changes_.push_back(
          Change{at_to ? Change::Kind::kInserted : Change::Kind::kDeleted,
                 Path(parent_path, node)});
      return;
    }
    // Present in both versions: look for content changes below.
    if (view_.IsFrontier(node)) {
      if (FrontierContentDiffers(node)) {
        changes_.push_back(
            Change{Change::Kind::kContentChanged, Path(parent_path, node)});
      }
      return;
    }
    const std::string path = Path(parent_path, node);
    const size_t child_count = view_.ChildCount(node);
    for (size_t i = 0; i < child_count; ++i) {
      Walk(view_.Child(node, i), path);
    }
  }

  std::vector<Change> Take() { return std::move(changes_); }

 private:
  std::string Path(const std::string& parent_path,
                   ArchiveView::NodeId node) const {
    return parent_path + "/" + view_.LabelString(node);
  }

  bool FrontierContentDiffers(ArchiveView::NodeId node) const {
    // Content differs iff some bucket is active at exactly one of the two
    // versions. (Unstamped buckets are active whenever the node is, hence
    // active at both here.)
    const size_t bucket_count = view_.BucketCount(node);
    for (size_t b = 0; b < bucket_count; ++b) {
      if (!view_.BucketHasStamp(node, b)) continue;
      if (view_.BucketStampContains(node, b, from_) !=
          view_.BucketStampContains(node, b, to_)) {
        return true;
      }
    }
    return false;
  }

  const ArchiveView& view_;
  Version from_, to_;
  std::vector<Change> changes_;
};

}  // namespace

StatusOr<std::vector<Change>> DescribeChanges(const ArchiveView& view,
                                              Version from, Version to) {
  const Version count = view.version_count();
  if (from == 0 || to == 0 || from > count || to > count) {
    return Status::InvalidArgument("versions must be in 1-" +
                                   std::to_string(count));
  }
  ChangeCollector collector(view, from, to);
  const ArchiveView::NodeId root = view.Root();
  const size_t child_count = view.ChildCount(root);
  for (size_t i = 0; i < child_count; ++i) {
    collector.Walk(view.Child(root, i), "");
  }
  return collector.Take();
}

StatusOr<std::vector<Change>> DescribeChanges(const Archive& archive,
                                              Version from, Version to) {
  return DescribeChanges(HeapArchiveView(&archive), from, to);
}

std::string FormatChanges(const std::vector<Change>& changes) {
  std::string out;
  for (const auto& change : changes) {
    switch (change.kind) {
      case Change::Kind::kInserted:
        out += "+ ";
        break;
      case Change::Kind::kDeleted:
        out += "- ";
        break;
      case Change::Kind::kContentChanged:
        out += "~ ";
        break;
    }
    out += change.path;
    out += '\n';
  }
  return out;
}

}  // namespace xarch::core
