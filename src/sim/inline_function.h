/**
 * @file
 * A small-buffer-optimized, move-only `void()` callable for the
 * event-dispatch hot path. Unlike `std::function`, the inline capacity
 * is chosen to hold every capture the simulator's hot paths create
 * (coroutine handles, Panda's delivery closures), so scheduling an
 * event never allocates; larger or over-aligned callables fall back
 * to the heap transparently.
 */

#ifndef TWOLAYER_SIM_INLINE_FUNCTION_H_
#define TWOLAYER_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tli::sim {

/**
 * Move-only type-erased `void()` callable with @p InlineBytes of
 * in-object storage.
 *
 * A callable type is stored inline when it fits the buffer, is no more
 * aligned than a pointer, and is nothrow-move-constructible (moves
 * happen during heap sifts, where an exception would corrupt the event
 * vector); anything else is boxed on the heap behind a pointer, which
 * makes relocation trivially a pointer copy.
 */
template <std::size_t InlineBytes = 40>
class InlineFunction
{
    static_assert(InlineBytes >= sizeof(void *),
                  "buffer must hold at least a boxed pointer");

  public:
    InlineFunction() noexcept = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<void, D &>>>
    InlineFunction(F &&fn) // NOLINT: implicit like std::function
    {
        if constexpr (fitsInline<D>) {
            ::new (storagePtr()) D(std::forward<F>(fn));
            ops_ = &inlineOps<D>;
        } else {
            ::new (storagePtr()) D *(new D(std::forward<F>(fn)));
            ops_ = &boxedOps<D>;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept : ops_(other.ops_)
    {
        if (ops_) {
            ops_->relocate(storagePtr(), other.storagePtr());
            other.ops_ = nullptr;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(storagePtr(), other.storagePtr());
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    void
    operator()()
    {
        ops_->invoke(storagePtr());
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Destroy the held callable, returning to the empty state. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(storagePtr());
            ops_ = nullptr;
        }
    }

    /**
     * Replace the held callable, constructing @p fn directly in the
     * buffer — the hot-path alternative to assigning a temporary,
     * which would cost an extra type-erased relocation.
     */
    template <typename F, typename D = std::decay_t<F>>
    void
    emplace(F &&fn)
    {
        if constexpr (std::is_same_v<D, InlineFunction>) {
            *this = std::forward<F>(fn);
        } else {
            static_assert(std::is_invocable_r_v<void, D &>);
            reset();
            if constexpr (fitsInline<D>) {
                ::new (storagePtr()) D(std::forward<F>(fn));
                ops_ = &inlineOps<D>;
            } else {
                ::new (storagePtr()) D *(new D(std::forward<F>(fn)));
                ops_ = &boxedOps<D>;
            }
        }
    }

    /** Whether callable type @p D would be stored without allocating. */
    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= InlineBytes && alignof(D) <= alignof(void *) &&
        std::is_nothrow_move_constructible_v<D>;

  private:
    /** Type-erased operations; one static table per callable type. */
    struct Ops
    {
        void (*invoke)(void *self);
        /** Move self from @p src storage into @p dst storage. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename D>
    static constexpr Ops inlineOps{
        [](void *self) { (*static_cast<D *>(self))(); },
        [](void *dst, void *src) noexcept {
            D *from = static_cast<D *>(src);
            ::new (dst) D(std::move(*from));
            from->~D();
        },
        [](void *self) noexcept { static_cast<D *>(self)->~D(); },
    };

    template <typename D>
    static constexpr Ops boxedOps{
        [](void *self) { (**static_cast<D **>(self))(); },
        [](void *dst, void *src) noexcept {
            ::new (dst) D *(*static_cast<D **>(src));
        },
        [](void *self) noexcept { delete *static_cast<D **>(self); },
    };

    void *storagePtr() noexcept { return storage_; }

    const Ops *ops_ = nullptr;
    alignas(void *) unsigned char storage_[InlineBytes];
};

/**
 * The event-callback type used throughout the simulator. 24 inline
 * bytes cover every hot-path capture — coroutine handles (8) and
 * Panda's (Panda*, envelope, rank) deliveries (24) — while keeping the
 * callable arena dense; anything larger (e.g. a moved-in
 * `std::function`) is boxed.
 */
using EventFn = InlineFunction<24>;

} // namespace tli::sim

#endif // TWOLAYER_SIM_INLINE_FUNCTION_H_
