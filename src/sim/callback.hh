/**
 * @file
 * Small-buffer-optimized, move-only callable — the event loop's
 * replacement for std::function.
 *
 * A simulated FHD frame schedules hundreds of thousands of events, and
 * with std::function every capture beyond the implementation's tiny
 * internal buffer (16 bytes on libstdc++) is a heap allocation on the
 * hottest path of the whole simulator. SmallCallback stores the callable
 * inline, always: there is no heap fallback, so a capture that does not
 * fit is a *compile-time* error at the schedule site instead of a silent
 * allocation. Every in-tree schedule site is audited to fit (see the
 * capacity notes on EventCallback / MemCallback below).
 *
 * Semantics:
 *  - move-only (like the unique_function proposals); moving transfers
 *    the callable, the moved-from callback becomes empty.
 *  - the wrapped callable must be nothrow-move-constructible: callbacks
 *    still relocate where a container that holds them grows (a cache
 *    MSHR's waiter vector, the DRAM request pool), and a throwing move
 *    there would lose a completion.
 *  - emplace() builds a callable directly inside an existing callback,
 *    so a producer that owns the storage (the event queue's pool)
 *    skips the intermediate callback and its relocation.
 *  - a trivially copyable callable (a lambda capturing pointers and
 *    integers) has no relocate/destroy thunks: a move copies the inline
 *    buffer and reset() makes no call. Other captures keep the thunks.
 *  - invoking an empty callback is a simulator bug (asserted).
 */

#ifndef LIBRA_SIM_CALLBACK_HH
#define LIBRA_SIM_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.hh"

namespace libra
{

template <typename Signature, std::size_t Capacity>
class SmallCallback;

template <typename R, typename... Args, std::size_t Capacity>
class SmallCallback<R(Args...), Capacity>
{
  public:
    SmallCallback() = default;
    SmallCallback(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallCallback>
                  && !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    SmallCallback(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    SmallCallback(SmallCallback &&other) noexcept { take(other); }

    SmallCallback &
    operator=(SmallCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    SmallCallback(const SmallCallback &) = delete;
    SmallCallback &operator=(const SmallCallback &) = delete;

    ~SmallCallback() { reset(); }

    /** Destroy any held callable, then construct @p fn in place. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "capture too large for this SmallCallback: shrink "
                      "the lambda's capture list (move shared state into "
                      "one heap/shared_ptr block) or raise the capacity");
        static_assert(alignof(Fn) <= kAlign,
                      "over-aligned captures are not supported");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "captures must be nothrow-movable (callbacks "
                      "relocate when a container holding them grows)");
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "callable signature mismatch");
        reset();
        ::new (static_cast<void *>(storage)) Fn(std::forward<F>(fn));
        ops = &opsFor<Fn>;
    }

    explicit operator bool() const { return ops != nullptr; }

    /** Destroy any held callable; the callback becomes empty. */
    void
    reset()
    {
        if (ops) {
            if (ops->destroy)
                ops->destroy(storage);
            ops = nullptr;
        }
    }

    R
    operator()(Args... args)
    {
        libra_assert(ops, "invoking an empty SmallCallback");
        return ops->invoke(storage, std::forward<Args>(args)...);
    }

    /** Inline capture capacity, in bytes. */
    static constexpr std::size_t capacity() { return Capacity; }

  private:
    /** relocate/destroy are null for a trivially copyable callable:
     *  its bytes are the object, so a move is a buffer copy and
     *  destruction is a no-op. */
    struct Ops
    {
        R (*invoke)(void *, Args...);
        void (*relocate)(void *from, void *to) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr bool kTrivial = std::is_trivially_copyable_v<Fn>;

    template <typename Fn>
    static constexpr Ops opsFor{
        [](void *obj, Args... args) -> R {
            return (*static_cast<Fn *>(obj))(std::forward<Args>(args)...);
        },
        kTrivial<Fn> ? nullptr : +[](void *from, void *to) noexcept {
            Fn *src = static_cast<Fn *>(from);
            ::new (to) Fn(std::move(*src));
            src->~Fn();
        },
        kTrivial<Fn> ? nullptr
                     : +[](void *obj) noexcept {
                           static_cast<Fn *>(obj)->~Fn();
                       },
    };

    /** Move @p other's callable into this empty callback. */
    void
    take(SmallCallback &other) noexcept
    {
        ops = other.ops;
        if (ops) {
            if (ops->relocate)
                ops->relocate(other.storage, storage);
            else
                std::memcpy(storage, other.storage, Capacity);
            other.ops = nullptr;
        }
    }

    // Pointer alignment, not max_align_t: a 16-byte-aligned buffer
    // would round a nested callback's size up and break the exact
    // capacity math of the wrap sites (MemCallback + Tick == 40).
    static constexpr std::size_t kAlign = alignof(void *);

    alignas(kAlign) unsigned char storage[Capacity];
    const Ops *ops = nullptr;
};

} // namespace libra

#endif // LIBRA_SIM_CALLBACK_HH
