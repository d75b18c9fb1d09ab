#include "soidom/pdn/pdn.hpp"

#include <algorithm>

namespace soidom {

PdnIndex Pdn::add_leaf(std::uint32_t signal) {
  nodes_.push_back(PdnNode{PdnKind::kLeaf, signal, {}});
  return static_cast<PdnIndex>(nodes_.size() - 1);
}

PdnIndex Pdn::add_series(std::vector<PdnIndex> children) {
  SOIDOM_ASSERT(!children.empty());
  if (children.size() == 1) return children.front();
  // Normalize: inline series children (keeps orientation: a series child's
  // sub-chain occupies its position top-first).
  std::vector<PdnIndex> flat;
  for (const PdnIndex c : children) {
    const PdnNode& n = node(c);
    if (n.kind == PdnKind::kSeries) {
      flat.insert(flat.end(), n.children.begin(), n.children.end());
    } else {
      flat.push_back(c);
    }
  }
  nodes_.push_back(PdnNode{PdnKind::kSeries, 0, std::move(flat)});
  return static_cast<PdnIndex>(nodes_.size() - 1);
}

PdnIndex Pdn::add_parallel(std::vector<PdnIndex> children) {
  SOIDOM_ASSERT(!children.empty());
  if (children.size() == 1) return children.front();
  std::vector<PdnIndex> flat;
  for (const PdnIndex c : children) {
    const PdnNode& n = node(c);
    if (n.kind == PdnKind::kParallel) {
      flat.insert(flat.end(), n.children.begin(), n.children.end());
    } else {
      flat.push_back(c);
    }
  }
  nodes_.push_back(PdnNode{PdnKind::kParallel, 0, std::move(flat)});
  return static_cast<PdnIndex>(nodes_.size() - 1);
}

int Pdn::width_of(PdnIndex i) const {
  const PdnNode& n = node(i);
  switch (n.kind) {
    case PdnKind::kLeaf:
      return 1;
    case PdnKind::kSeries: {
      int w = 1;
      for (const PdnIndex c : n.children) w = std::max(w, width_of(c));
      return w;
    }
    case PdnKind::kParallel: {
      int w = 0;
      for (const PdnIndex c : n.children) w += width_of(c);
      return w;
    }
  }
  return 1;
}

int Pdn::height_of(PdnIndex i) const {
  const PdnNode& n = node(i);
  switch (n.kind) {
    case PdnKind::kLeaf:
      return 1;
    case PdnKind::kSeries: {
      int h = 0;
      for (const PdnIndex c : n.children) h += height_of(c);
      return h;
    }
    case PdnKind::kParallel: {
      int h = 0;
      for (const PdnIndex c : n.children) h = std::max(h, height_of(c));
      return h;
    }
  }
  return 1;
}

int Pdn::transistor_count_of(PdnIndex i) const {
  const PdnNode& n = node(i);
  if (n.kind == PdnKind::kLeaf) return 1;
  int t = 0;
  for (const PdnIndex c : n.children) t += transistor_count_of(c);
  return t;
}

int Pdn::width() const { return empty() ? 0 : width_of(root_); }
int Pdn::height() const { return empty() ? 0 : height_of(root_); }
int Pdn::transistor_count() const {
  return empty() ? 0 : transistor_count_of(root_);
}

std::vector<std::uint32_t> Pdn::leaf_signals() const {
  std::vector<std::uint32_t> out;
  for_each_leaf([&](std::uint32_t signal) { out.push_back(signal); });
  return out;
}

std::string Pdn::to_string_of(PdnIndex i) const {
  const PdnNode& n = node(i);
  switch (n.kind) {
    case PdnKind::kLeaf: {
      std::string out = "s";
      out += std::to_string(n.signal);
      return out;
    }
    case PdnKind::kSeries:
    case PdnKind::kParallel: {
      const char* sep = n.kind == PdnKind::kSeries ? "." : "+";
      std::string out = "(";
      for (std::size_t k = 0; k < n.children.size(); ++k) {
        if (k) out += sep;
        out += to_string_of(n.children[k]);
      }
      out += ')';
      return out;
    }
  }
  return "?";
}

std::string Pdn::to_string() const {
  return empty() ? "<empty>" : to_string_of(root_);
}

namespace {

bool equal_rec(const Pdn& a, PdnIndex ia, const Pdn& b, PdnIndex ib) {
  const PdnNode& na = a.node(ia);
  const PdnNode& nb = b.node(ib);
  if (na.kind != nb.kind) return false;
  if (na.kind == PdnKind::kLeaf) return na.signal == nb.signal;
  if (na.children.size() != nb.children.size()) return false;
  for (std::size_t k = 0; k < na.children.size(); ++k) {
    if (!equal_rec(a, na.children[k], b, nb.children[k])) return false;
  }
  return true;
}

}  // namespace

bool structurally_equal(const Pdn& a, const Pdn& b) {
  if (a.empty() != b.empty()) return false;
  if (a.empty()) return true;
  return equal_rec(a, a.root(), b, b.root());
}

}  // namespace soidom
