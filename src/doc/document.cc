#include "doc/document.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"

namespace qec::doc {

std::string FeatureToken(const Feature& feature) {
  auto squash = [](std::string_view part) {
    std::string out;
    out.reserve(part.size());
    for (char c : part) {
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
  };
  return squash(feature.entity) + ":" + squash(feature.attribute) + ":" +
         squash(feature.value);
}

Document::Document(DocId id, DocumentKind kind, std::string title,
                   std::vector<TermId> terms, std::vector<Feature> features)
    : id_(id),
      kind_(kind),
      title_(std::move(title)),
      terms_(std::move(terms)),
      features_(features.empty() ? nullptr
                                 : std::make_unique<const std::vector<Feature>>(
                                       std::move(features))) {
  // Run-length count a sorted copy; the two per-document arrays are
  // allocated at their exact size (a corpus holds millions of them).
  std::vector<TermId> sorted = terms_;
  std::sort(sorted.begin(), sorted.end());
  size_t distinct = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) ++distinct;
  }
  term_set_.reserve(distinct);
  term_counts_.reserve(distinct);
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) {
      term_set_.push_back(sorted[i]);
      term_counts_.push_back(0);
    }
    ++term_counts_.back();
  }
}

const std::vector<Feature>& Document::features() const {
  static const std::vector<Feature> kNone;
  return features_ != nullptr ? *features_ : kNone;
}

int Document::TermFrequency(TermId term) const {
  auto it = std::lower_bound(term_set_.begin(), term_set_.end(), term);
  if (it == term_set_.end() || *it != term) return 0;
  return term_counts_[static_cast<size_t>(it - term_set_.begin())];
}

bool Document::Contains(TermId term) const {
  return std::binary_search(term_set_.begin(), term_set_.end(), term);
}

}  // namespace qec::doc
