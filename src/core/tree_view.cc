#include "core/tree_view.h"

namespace xarch::core {

size_t ArchiveView::CountNodes(NodeId n) const {
  size_t count = 1;
  const size_t child_count = ChildCount(n);
  for (size_t i = 0; i < child_count; ++i) count += CountNodes(Child(n, i));
  return count;
}

ArchiveView::NodeId FindChildByKeyStep(const ArchiveView& view,
                                       ArchiveView::NodeId parent,
                                       const KeyStep& step) {
  const size_t child_count = view.ChildCount(parent);
  for (size_t c = 0; c < child_count; ++c) {
    const ArchiveView::NodeId child = view.Child(parent, c);
    if (view.Tag(child) != step.tag) continue;
    const size_t part_count = view.LabelPartCount(child);
    if (part_count != step.key.size()) continue;
    bool all_match = true;
    for (const auto& [path, text] : step.key) {
      bool found = false;
      for (size_t p = 0; p < part_count; ++p) {
        const auto [part_path, part_value] = view.LabelPart(child, p);
        if (part_path != path) continue;
        // Plain text matches the raw stored value or canonical "T<text>".
        if (part_value == text ||
            (part_value.size() == text.size() + 1 && part_value[0] == 'T' &&
             part_value.substr(1) == text)) {
          found = true;
          break;
        }
      }
      if (!found) {
        all_match = false;
        break;
      }
    }
    if (all_match) return child;
  }
  return ArchiveView::kNoNode;
}

StatusOr<VersionSet> HistoryOverView(const ArchiveView& view,
                                     const std::vector<KeyStep>& path) {
  ArchiveView::NodeId node = view.Root();
  VersionSet effective = view.StampValue(node);
  for (const auto& step : path) {
    if (view.IsFrontier(node)) {
      return Status::InvalidArgument(
          "history path descends below frontier node " +
          view.LabelString(node));
    }
    const ArchiveView::NodeId child = FindChildByKeyStep(view, node, step);
    if (child == ArchiveView::kNoNode) {
      return Status::NotFound("no element " + step.tag + " on the given path");
    }
    effective = view.EffectiveStamp(child, effective);
    node = child;
  }
  return effective;
}

}  // namespace xarch::core
