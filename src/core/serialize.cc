#include <algorithm>
#include <string>

#include "core/archive.h"
#include "core/tree_view.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xarch::core {

namespace {

/// The timestamp element tag. "We may assume that the tag T is in a
/// separate namespace" (Sec. 2) — a plain T never collides with data tags
/// in the paper's datasets, and the loader treats it as reserved.
constexpr const char* kTimestampTag = "T";

std::string StampToString(const VersionSet& stamp, bool interval_encoding) {
  if (interval_encoding) return stamp.ToString();
  // E13 ablation: exhaustive version list.
  std::string out;
  for (const auto& [lo, hi] : stamp.intervals()) {
    for (Version v = lo; v <= hi; ++v) {
      if (!out.empty()) out += ',';
      out += std::to_string(v);
    }
  }
  return out;
}

/// Streams the Fig. 5 document off an ArchiveView: byte for byte what
/// xml::Serialize emits for the tree of <T> wrappers and archive elements
/// the document describes, without building that tree.
class ArchiveXmlWriter {
 public:
  ArchiveXmlWriter(const ArchiveView& view,
                   const ArchiveSerializeOptions& options,
                   const XmlChunkFn& emit)
      : view_(view),
        options_(options),
        content_options_{options.pretty, options.indent_width},
        emit_(emit) {}

  void Write() {
    const ArchiveView::NodeId root = view_.Root();
    WriteWrapped(root, StampText(view_.StampValue(root)), 0);
    emit_(buffer_);
  }

 private:
  static constexpr size_t kFlushThreshold = 64 * 1024;

  std::string StampText(const VersionSet& stamp) const {
    return StampToString(stamp, options_.interval_encoding);
  }

  void Indent(int depth) {
    if (options_.pretty) {
      buffer_.append(static_cast<size_t>(depth) *
                         static_cast<size_t>(options_.indent_width),
                     ' ');
    }
  }

  void Newline() {
    if (options_.pretty) buffer_ += '\n';
  }

  /// `<T t="..."`; stamp text (digits, ',' and '-') needs no escaping.
  void OpenT(std::string_view stamp, int depth) {
    Indent(depth);
    buffer_ += "<T t=\"";
    buffer_ += stamp;
    buffer_ += '"';
  }

  /// Ends a start tag: "/>" for an element without children (returns
  /// false), else '>'. Text-only content stays on the tag's line, as
  /// xml::Serialize keeps it (without pretty printing the two layouts
  /// are the same bytes).
  bool OpenBody(bool empty, bool inline_text) {
    if (empty) {
      buffer_ += "/>";
      Newline();
      return false;
    }
    buffer_ += '>';
    if (!inline_text) Newline();
    return true;
  }

  void CloseBody(std::string_view tag, int depth, bool inline_text) {
    if (!inline_text) Indent(depth);
    buffer_ += "</";
    buffer_ += tag;
    buffer_ += '>';
    Newline();
  }

  /// An archive node's element inside a <T> carrying `stamp`.
  void WriteWrapped(ArchiveView::NodeId node, const std::string& stamp,
                    int depth) {
    OpenT(stamp, depth);
    OpenBody(false, false);
    WriteNode(node, stamp, depth + 1);
    CloseBody(kTimestampTag, depth, false);
  }

  /// An archive node's element; `effective` is its timestamp in effect,
  /// rendered (what wraps an unstamped child when inheritance is off).
  void WriteNode(ArchiveView::NodeId node, const std::string& effective,
                 int depth) {
    Indent(depth);
    buffer_ += '<';
    buffer_ += view_.Tag(node);
    for (size_t i = 0; i < view_.AttrCount(node); ++i) {
      const auto [name, value] = view_.Attr(node, i);
      buffer_ += ' ';
      buffer_ += name;
      buffer_ += "=\"";
      buffer_ += xml::EscapeAttr(value);
      buffer_ += '"';
    }
    if (view_.IsFrontier(node)) {
      WriteFrontier(node, depth);
    } else {
      WriteInner(node, effective, depth);
    }
    if (buffer_.size() >= kFlushThreshold) {
      emit_(buffer_);
      buffer_.clear();
    }
  }

  void WriteInner(ArchiveView::NodeId node, const std::string& effective,
                  int depth) {
    const size_t child_count = view_.ChildCount(node);
    if (!OpenBody(child_count == 0, false)) return;
    for (size_t i = 0; i < child_count; ++i) {
      const ArchiveView::NodeId child = view_.Child(node, i);
      if (view_.HasStamp(child)) {
        WriteWrapped(child, StampText(view_.StampValue(child)), depth + 1);
      } else if (options_.inherit_timestamps) {
        WriteNode(child, effective, depth + 1);
      } else {
        WriteWrapped(child, effective, depth + 1);
      }
    }
    CloseBody(view_.Tag(node), depth, false);
  }

  /// A stamped bucket is one <T> child holding its content; an unstamped
  /// bucket's content sits directly in the element.
  void WriteFrontier(ArchiveView::NodeId node, int depth) {
    const size_t bucket_count = view_.BucketCount(node);
    bool empty = true, text_only = true;
    for (size_t b = 0; b < bucket_count; ++b) {
      const bool stamped = view_.BucketHasStamp(node, b);
      empty = empty && !stamped && view_.BucketContentCount(node, b) == 0;
      text_only = text_only && !stamped && AllText(node, b);
    }
    if (!OpenBody(empty, text_only)) return;
    for (size_t b = 0; b < bucket_count; ++b) {
      if (!view_.BucketHasStamp(node, b)) {
        WriteContent(node, b, depth + 1, text_only);
        continue;
      }
      OpenT(StampText(view_.BucketStampValue(node, b)), depth + 1);
      const bool inline_text = AllText(node, b);
      if (!OpenBody(view_.BucketContentCount(node, b) == 0, inline_text)) {
        continue;
      }
      WriteContent(node, b, depth + 2, inline_text);
      CloseBody(kTimestampTag, depth + 1, inline_text);
    }
    CloseBody(view_.Tag(node), depth, text_only);
  }

  bool AllText(ArchiveView::NodeId node, size_t b) const {
    for (size_t i = 0; i < view_.BucketContentCount(node, b); ++i) {
      if (!view_.BucketContentIsText(node, b, i)) return false;
    }
    return true;
  }

  void WriteContent(ArchiveView::NodeId node, size_t b, int depth,
                    bool inline_text) {
    for (size_t i = 0; i < view_.BucketContentCount(node, b); ++i) {
      if (inline_text) {
        buffer_ += xml::EscapeText(view_.BucketContentText(node, b, i));
      } else {
        view_.AppendBucketContent(node, b, i, content_options_, depth,
                                  &buffer_);
      }
    }
  }

  const ArchiveView& view_;
  const ArchiveSerializeOptions& options_;
  const xml::SerializeOptions content_options_;
  const XmlChunkFn& emit_;
  std::string buffer_;
};

}  // namespace

void WriteArchiveXml(const ArchiveView& view,
                     const ArchiveSerializeOptions& options,
                     const XmlChunkFn& emit) {
  ArchiveXmlWriter(view, options, emit).Write();
}

std::string Archive::ToXml(const ArchiveSerializeOptions& options) const {
  std::string out;
  WriteArchiveXml(HeapArchiveView(this), options,
                  [&out](std::string_view chunk) { out.append(chunk); });
  return out;
}

namespace {

/// Rebuilds ArchiveNodes from the Fig. 5 XML form.
class Loader {
 public:
  Loader(const keys::KeySpecSet& spec, const ArchiveOptions& options)
      : spec_(spec), options_(options) {}

  StatusOr<std::unique_ptr<ArchiveNode>> LoadKeyed(
      const xml::Node& elem, std::optional<VersionSet> stamp,
      const VersionSet& parent_effective) {
    if (elem.is_text()) {
      return Status::Corruption("text where a keyed element was expected");
    }
    steps_.push_back(elem.tag());
    auto result = LoadKeyedImpl(elem, std::move(stamp), parent_effective);
    steps_.pop_back();
    return result;
  }

 private:
  StatusOr<std::unique_ptr<ArchiveNode>> LoadKeyedImpl(
      const xml::Node& elem, std::optional<VersionSet> stamp,
      const VersionSet& parent_effective) {
    const keys::Key* key = spec_.Lookup(steps_);
    if (key == nullptr) {
      return Status::Corruption("archive element <" + elem.tag() +
                                "> is not covered by any key");
    }
    auto node = std::make_unique<ArchiveNode>();
    XARCH_ASSIGN_OR_RETURN(node->label,
                           keys::ComputeLabel(elem, *key, options_.annotate));
    node->stamp = std::move(stamp);
    node->is_frontier = spec_.IsFrontier(steps_);
    node->attrs = elem.attrs();
    // The paper's archive invariant (Sec. 2): a node's timestamp is a
    // subset of every ancestor's. A document violating it is not an
    // archive any consistent merge could have produced — reject it here
    // with the offending path instead of letting retrieval misbehave.
    const VersionSet& effective = node->EffectiveStamp(parent_effective);
    if (node->stamp.has_value() &&
        !parent_effective.IsSupersetOf(*node->stamp)) {
      return Status::Corruption(
          "timestamp [" + node->stamp->ToString() + "] of <" + PathText() +
          "> is not a subset of its parent's [" +
          parent_effective.ToString() + "]");
    }
    if (node->is_frontier) {
      ArchiveNode::Bucket plain;
      for (const auto& child : elem.children()) {
        if (child->is_element() && child->tag() == kTimestampTag) {
          if (!plain.content.empty()) {
            node->buckets.push_back(std::move(plain));
            plain = ArchiveNode::Bucket{};
          }
          ArchiveNode::Bucket bucket;
          XARCH_ASSIGN_OR_RETURN(bucket.stamp, ParseStamp(*child));
          if (bucket.stamp.has_value() &&
              !effective.IsSupersetOf(*bucket.stamp)) {
            return Status::Corruption(
                "bucket timestamp [" + bucket.stamp->ToString() +
                "] under <" + PathText() +
                "> is not a subset of the node's [" + effective.ToString() +
                "]");
          }
          for (const auto& inner : child->children()) {
            bucket.content.push_back(inner->Clone());
          }
          node->buckets.push_back(std::move(bucket));
        } else {
          plain.content.push_back(child->Clone());
        }
      }
      if (!plain.content.empty() || node->buckets.empty()) {
        node->buckets.push_back(std::move(plain));
      }
    } else {
      XARCH_RETURN_NOT_OK(LoadChildren(elem, effective, &node->children));
    }
    return node;
  }

  Status LoadChildren(const xml::Node& elem, const VersionSet& effective,
                      std::vector<std::unique_ptr<ArchiveNode>>* out) {
    for (const auto& child : elem.children()) {
      if (child->is_text()) {
        return Status::Corruption("text under inner archive node <" +
                                  elem.tag() + ">");
      }
      if (child->tag() == kTimestampTag) {
        XARCH_ASSIGN_OR_RETURN(std::optional<VersionSet> stamp,
                               ParseStamp(*child));
        for (const auto& inner : child->children()) {
          XARCH_ASSIGN_OR_RETURN(auto loaded,
                                 LoadKeyed(*inner, stamp, effective));
          out->push_back(std::move(loaded));
        }
      } else {
        XARCH_ASSIGN_OR_RETURN(
            auto loaded, LoadKeyed(*child, std::nullopt, effective));
        out->push_back(std::move(loaded));
      }
    }
    std::sort(out->begin(), out->end(), [](const auto& a, const auto& b) {
      return a->label.OrderBefore(b->label);
    });
    // Equal labels among siblings mean the same keyed element was stored
    // twice — a key violation no merge produces. Detect it after the sort
    // (duplicates are adjacent) rather than letting lookups silently pick
    // one of the two.
    for (size_t i = 1; i < out->size(); ++i) {
      if ((*out)[i - 1]->label == (*out)[i]->label) {
        return Status::Corruption("duplicate keyed sibling " +
                                  (*out)[i]->label.ToString() + " under <" +
                                  elem.tag() + ">");
      }
    }
    return Status::OK();
  }

  static StatusOr<std::optional<VersionSet>> ParseStamp(const xml::Node& t) {
    const std::string* attr = t.FindAttr("t");
    if (attr == nullptr) {
      return Status::Corruption("timestamp element without t attribute");
    }
    XARCH_ASSIGN_OR_RETURN(VersionSet stamp, VersionSet::Parse(*attr));
    if (stamp.empty()) {
      return Status::Corruption("empty timestamp on <T> element");
    }
    if (stamp.Min() == 0) {
      return Status::Corruption("timestamp '" + *attr +
                                "' contains version 0 (versions are "
                                "numbered from 1)");
    }
    return std::optional<VersionSet>(std::move(stamp));
  }

  std::string PathText() const {
    std::string out;
    for (const auto& step : steps_) {
      out += '/';
      out += step;
    }
    return out;
  }

  friend class ::xarch::core::Archive;
  const keys::KeySpecSet& spec_;
  const ArchiveOptions& options_;
  std::vector<std::string> steps_;

 public:
  Status LoadRootChildren(const xml::Node& root_elem,
                          const VersionSet& root_stamp,
                          std::vector<std::unique_ptr<ArchiveNode>>* out) {
    return LoadChildren(root_elem, root_stamp, out);
  }
};

}  // namespace

StatusOr<Archive> Archive::FromXml(std::string_view xml_text,
                                   keys::KeySpecSet spec,
                                   ArchiveOptions options) {
  XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, xml::Parse(xml_text));
  if (doc->tag() != kTimestampTag) {
    return Status::Corruption("archive document must start with <T t=...>");
  }
  const std::string* attr = doc->FindAttr("t");
  if (attr == nullptr) {
    return Status::Corruption("archive root timestamp missing");
  }
  XARCH_ASSIGN_OR_RETURN(VersionSet root_stamp, VersionSet::Parse(*attr));
  if (!root_stamp.empty() && root_stamp.Min() == 0) {
    return Status::Corruption(
        "archive root timestamp contains version 0 (versions are numbered "
        "from 1)");
  }
  if (doc->children().size() != 1 || !doc->children()[0]->is_element() ||
      doc->children()[0]->tag() != "root") {
    return Status::Corruption("archive must contain a single <root> element");
  }

  Archive archive(std::move(spec), options);
  Loader loader(archive.spec_, archive.options_);
  XARCH_RETURN_NOT_OK(loader.LoadRootChildren(*doc->children()[0], root_stamp,
                                              &archive.root_->children));
  archive.count_ = root_stamp.empty() ? 0 : root_stamp.Max();
  archive.root_->stamp = std::move(root_stamp);
  return archive;
}

}  // namespace xarch::core
