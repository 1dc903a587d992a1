/**
 * @file
 * InlineFunction: a move-only `void()` callable that keeps its
 * target inside the object.
 *
 * The simulator stores one callback per event, per DMA transfer
 * and per packet hop. std::function moves any capture larger than
 * two pointers to the heap, and a capture of one 48-byte Packet
 * already is; InlineFunction<N> stores targets of up to N bytes in
 * place and falls back to the heap only for larger (or
 * over-aligned, or throwing-move) targets. An empty std::function
 * or null function pointer yields an empty InlineFunction.
 */

#ifndef BMHIVE_BASE_INLINE_FUNCTION_HH
#define BMHIVE_BASE_INLINE_FUNCTION_HH

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace bmhive {

template <std::size_t N>
class InlineFunction
{
  public:
    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<void, D &>>>
    InlineFunction(F &&f)
    {
        if constexpr (std::is_same_v<D, std::function<void()>> ||
                      std::is_pointer_v<D>) {
            if (!f)
                return;
        }
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &inlineOps<D>;
        } else {
            ::new (static_cast<void *>(buf_))
                D *(new D(std::forward<F>(f)));
            ops_ = &heapOps<D>;
        }
    }

    InlineFunction(InlineFunction &&o) noexcept { take(o); }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the target; must not be empty. */
    void operator()() { ops_->invoke(buf_); }

    /** Destroy the target, leaving this empty. */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** True if a target of type @p D is stored without the heap. */
    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= N && alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into @p dst and destroy @p src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *p) { (*static_cast<D *>(p))(); },
        [](void *dst, void *src) {
            D *s = static_cast<D *>(src);
            ::new (dst) D(std::move(*s));
            s->~D();
        },
        [](void *p) { static_cast<D *>(p)->~D(); },
    };

    template <typename D>
    static constexpr Ops heapOps = {
        [](void *p) { (**static_cast<D **>(p))(); },
        [](void *dst, void *src) {
            ::new (dst) D *(*static_cast<D **>(src));
        },
        [](void *p) { delete *static_cast<D **>(p); },
    };

    void
    take(InlineFunction &o)
    {
        if (o.ops_) {
            o.ops_->relocate(buf_, o.buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[N];
    const Ops *ops_ = nullptr;
};

} // namespace bmhive

#endif // BMHIVE_BASE_INLINE_FUNCTION_HH
