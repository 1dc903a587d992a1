/**
 * @file
 * ListView: a read-only view of a contiguous list of T that a
 * caller can spell as a braced list (`{{a, b}, {c, d}}`), a vector,
 * or a pointer and a count.
 *
 * std::span cannot be built from a braced list, and taking a
 * std::vector by value makes every hot-path caller allocate. The
 * view owns nothing: a braced list lives until the end of the full
 * expression, which covers the call it is passed to.
 */

#ifndef BMHIVE_BASE_LIST_VIEW_HH
#define BMHIVE_BASE_LIST_VIEW_HH

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace bmhive {

template <typename T>
class ListView
{
  public:
    ListView() = default;
    // The list's array outlives the call the view is passed to,
    // which is the only use this view supports.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
    ListView(std::initializer_list<T> l)
        : data_(l.begin()), size_(l.size()) {}
#pragma GCC diagnostic pop
    ListView(const std::vector<T> &v)
        : data_(v.data()), size_(v.size()) {}
    ListView(const T *p, std::size_t n) : data_(p), size_(n) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

  private:
    const T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace bmhive

#endif // BMHIVE_BASE_LIST_VIEW_HH
