#include "util/schema.h"

namespace xmem::util::schema {

std::string Path::str() const {
  std::string text = parent == nullptr ? ""
                     : parent->parent == nullptr ? parent->str() + " "
                                                 : parent->str() + ".";
  text += name;
  if (index != kNoIndex) {
    text += '[';
    text += std::to_string(index);
    text += ']';
  }
  return text;
}

void fail(const Path& at, const std::string& expect, const Json* got) {
  // The quoted field is the value's own segment; its parents are the context.
  std::string shown = got == nullptr ? "nothing" : got->dump();
  if (shown.size() > 48) shown = shown.substr(0, 45) + "...";
  throw std::invalid_argument(
      (at.parent == nullptr ? "" : at.parent->str() + ": ") + "\"" +
      Path{at.name, nullptr, at.index}.str() + "\" must be " + expect +
      ", got " + shown);
}

std::string FieldInfo::expectation() const {
  if (expect != nullptr) return expect;
  return "an integer in [" + std::to_string(min) + ", " + std::to_string(max) +
         "]";
}

}  // namespace xmem::util::schema
