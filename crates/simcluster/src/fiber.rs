//! Stackful fibers: the resumable continuations behind rank execution.
//!
//! A [`Fiber`] owns a private call stack. [`Fiber::resume`] switches the
//! current OS thread onto that stack and runs the fiber's entry function
//! until it either returns (the fiber is *done*) or calls [`suspend`],
//! which switches back to the resumer. Each direction carries one
//! `usize`: the resumer's argument becomes `suspend`'s return value
//! inside the fiber, and the fiber's `suspend` code (or the entry's
//! return value) becomes `resume`'s return value. The engine layers its
//! own yield protocol on top of these codes.
//!
//! Design constraints, in order:
//!
//! - **No new dependencies.** The context switch is ~20 instructions of
//!   `global_asm!` per architecture (x86-64 SysV and AArch64 AAPCS64),
//!   saving exactly the callee-saved registers plus the FP control
//!   words. There is no `libc` in this workspace, so stacks come from
//!   the global allocator rather than `mmap`: large allocations are lazily
//!   committed by the allocator anyway, and a canary word at the low end
//!   of each stack (checked on every switch back) substitutes for a
//!   guard page. A clobbered canary aborts the process — a smashed
//!   stack cannot be unwound safely.
//! - **Deterministic teardown.** [`Fiber::unwind`] resumes a suspended
//!   fiber with a reserved argument that makes `suspend` raise
//!   [`ForcedUnwind`], so destructors on the fiber stack run
//!   *synchronously in the caller* — the engine uses this to tear down
//!   killed ranks at their kill time and to drain the run on a panic
//!   or deadlock. Dropping a suspended fiber force-unwinds it the same
//!   way.
//! - **Thread affinity.** A fiber must always be resumed from the same
//!   OS thread (the engine builds and resumes every rank on its one
//!   engine thread): code running inside the fiber may cache
//!   thread-locals of the resuming thread, and migrating a live stack
//!   between threads would invalidate them.

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Panic payload raised inside a fiber by [`Fiber::unwind`] (and by
/// dropping a suspended fiber) to run the destructors on its stack.
/// Code inside a fiber that catches panics must let this one pass, or
/// rethrow it, for teardown to terminate.
pub struct ForcedUnwind;

/// Completion code returned by [`Fiber::resume`] or [`Fiber::unwind`]
/// when a [`ForcedUnwind`] unwound the whole entry function (i.e. the
/// entry did not catch it and map it to its own code).
pub const UNWOUND: usize = usize::MAX - 1;

/// Reserved resume argument that triggers the forced unwind;
/// [`suspend`] never returns it.
const RESUME_FORCED_UNWIND: usize = usize::MAX;

/// Stack alignment: generous enough for any ABI frame requirement.
const STACK_ALIGN: usize = 64;

/// Canary written at the low end of every stack and checked after each
/// switch out of the fiber.
const CANARY: u64 = 0x5afe_57ac_4ca8_a87e;

/// Minimum stack size accepted by [`Fiber::new`].
pub const MIN_STACK: usize = 16 * 1024;

/// Largest stack [`Fiber::new`] allocates; larger requests are clamped,
/// so a stack's size always fits an allocation.
const MAX_STACK: usize = 1 << 30;

// ---------------------------------------------------------------------
// Context switch (x86-64 SysV).
//
// `pio_fiber_switch(save, to, arg)` pushes the callee-saved state on the
// current stack, stores the resulting stack pointer through `save`,
// switches to the stack pointer `to`, restores the state found there,
// and returns `arg` to whatever call site that stack was suspended in.
// A brand-new fiber stack is seeded (see `seed_stack`) so that the first
// switch "returns" into `pio_fiber_boot`, which forwards the fiber
// pointer (parked in rbx/x19) and `arg` to `pio_fiber_main`.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    r#"
    .text
    .p2align 4
    .globl pio_fiber_switch
pio_fiber_switch:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    sub rsp, 8
    stmxcsr [rsp]
    fnstcw [rsp + 4]
    mov [rdi], rsp
    mov rsp, rsi
    ldmxcsr [rsp]
    fldcw [rsp + 4]
    add rsp, 8
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    mov rax, rdx
    ret

    .p2align 4
    .globl pio_fiber_boot
pio_fiber_boot:
    mov rdi, rbx
    mov rsi, rax
    xor ebp, ebp
    call pio_fiber_main
    ud2
"#
);

#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    r#"
    .text
    .p2align 4
    .globl pio_fiber_switch
pio_fiber_switch:
    sub sp, sp, #160
    stp x19, x20, [sp, #0]
    stp x21, x22, [sp, #16]
    stp x23, x24, [sp, #32]
    stp x25, x26, [sp, #48]
    stp x27, x28, [sp, #64]
    stp x29, x30, [sp, #80]
    stp d8, d9, [sp, #96]
    stp d10, d11, [sp, #112]
    stp d12, d13, [sp, #128]
    stp d14, d15, [sp, #144]
    mov x9, sp
    str x9, [x0]
    mov sp, x1
    ldp x19, x20, [sp, #0]
    ldp x21, x22, [sp, #16]
    ldp x23, x24, [sp, #32]
    ldp x25, x26, [sp, #48]
    ldp x27, x28, [sp, #64]
    ldp x29, x30, [sp, #80]
    ldp d8, d9, [sp, #96]
    ldp d10, d11, [sp, #112]
    ldp d12, d13, [sp, #128]
    ldp d14, d15, [sp, #144]
    add sp, sp, #160
    mov x0, x2
    ret

    .p2align 4
    .globl pio_fiber_boot
pio_fiber_boot:
    mov x1, x0
    mov x0, x19
    mov x29, xzr
    bl pio_fiber_main
    brk #0x1
"#
);

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!(
    "simcluster's engine needs a fiber context switch for this \
     architecture; x86_64 and aarch64 are provided in fiber.rs"
);

extern "C" {
    fn pio_fiber_switch(save: *mut *mut u8, to: *mut u8, arg: usize) -> usize;
    fn pio_fiber_boot();
}

// ---------------------------------------------------------------------
// Stack memory.
// ---------------------------------------------------------------------

/// One `STACK_ALIGN`-byte unit of stack memory.
#[repr(C, align(64))]
struct Block([u8; STACK_ALIGN]);

struct Stack {
    /// The lowest byte of `mem`'s buffer.
    base: *mut u8,
    /// Owns the stack: its capacity is the stack, and its length stays
    /// zero (the switched-to code writes the memory, never the vector).
    mem: Vec<Block>,
}

impl Stack {
    fn new(size: usize) -> Stack {
        let blocks = size.clamp(MIN_STACK, MAX_STACK).div_ceil(STACK_ALIGN);
        // Untouched pages of a large allocation are lazily committed, so
        // oversizing fiber stacks costs address space, not memory.
        let mut mem = Vec::with_capacity(blocks);
        let base = mem.as_mut_ptr() as *mut u8;
        // SAFETY: `base` starts an allocation of at least MIN_STACK bytes
        // aligned to STACK_ALIGN, so its first eight bytes are writable
        // and aligned for a `u64`.
        unsafe { (base as *mut u64).write(CANARY) };
        Stack { base, mem }
    }

    /// One past the highest usable byte; aligned to `STACK_ALIGN`.
    fn top(&self) -> *mut u8 {
        // SAFETY: one past the end of `mem`'s allocation, which never
        // reallocates: its length stays zero and nothing pushes.
        unsafe { self.base.add(self.mem.capacity() * STACK_ALIGN) }
    }

    fn canary_ok(&self) -> bool {
        unsafe { (self.base as *const u64).read() == CANARY }
    }
}

// ---------------------------------------------------------------------
// Fiber.
// ---------------------------------------------------------------------

type Entry = Box<dyn FnOnce(usize) -> usize>;

struct FiberInner {
    stack: Stack,
    /// The fiber's saved stack pointer while it is suspended (seeded to
    /// the bootstrap frame before the first resume).
    fiber_sp: Cell<*mut u8>,
    /// The resumer's saved stack pointer while the fiber runs.
    caller_sp: Cell<*mut u8>,
    /// Entry function; taken by `pio_fiber_main` on first resume. The
    /// `'static` here is a lie told via transmute — `Fiber<'a>` carries
    /// the real lifetime and cannot outlive it.
    entry: Cell<Option<Entry>>,
    started: Cell<bool>,
    done: Cell<bool>,
}

thread_local! {
    /// The fiber currently running on this thread, for [`suspend`].
    static CURRENT: Cell<*const FiberInner> = const { Cell::new(std::ptr::null()) };
}

/// A suspended computation with its own stack. See the module docs.
pub struct Fiber<'a> {
    inner: Box<FiberInner>,
    _life: PhantomData<&'a ()>,
}

impl<'a> Fiber<'a> {
    /// Create a fiber that will run `entry` on a fresh stack of at least
    /// `stack_size` bytes (clamped up to [`MIN_STACK`], and down to
    /// 1 GiB). The first
    /// [`Fiber::resume`] argument is passed to `entry`; the entry's
    /// return value becomes the final resume's result. `entry` must not
    /// unwind: catch panics inside and map them to a code (an escaped
    /// [`ForcedUnwind`] is tolerated and reported as [`UNWOUND`]; any
    /// other escaped panic aborts the process, since it cannot cross
    /// the context switch).
    pub fn new<F>(stack_size: usize, entry: F) -> Fiber<'a>
    where
        F: FnOnce(usize) -> usize + 'a,
    {
        let boxed: Box<dyn FnOnce(usize) -> usize + 'a> = Box::new(entry);
        // Erase the lifetime for storage; `PhantomData<&'a ()>` on the
        // fiber restores the borrow so the closure's captures must
        // outlive the fiber itself.
        let boxed: Entry = unsafe { std::mem::transmute(boxed) };
        let inner = Box::new(FiberInner {
            stack: Stack::new(stack_size),
            fiber_sp: Cell::new(std::ptr::null_mut()),
            caller_sp: Cell::new(std::ptr::null_mut()),
            entry: Cell::new(Some(boxed)),
            started: Cell::new(false),
            done: Cell::new(false),
        });
        seed_stack(&inner);
        Fiber {
            inner,
            _life: PhantomData,
        }
    }

    /// Has the entry function been entered at least once?
    pub fn started(&self) -> bool {
        self.inner.started.get()
    }

    /// Has the entry function returned (or fully unwound)?
    pub fn is_done(&self) -> bool {
        self.inner.done.get()
    }

    /// Switch onto the fiber's stack until it suspends or completes.
    /// Returns the fiber's `suspend` code, the entry's return value, or
    /// [`UNWOUND`]. `arg` reaches the fiber as `entry`'s parameter (on
    /// first resume) or as [`suspend`]'s return value.
    ///
    /// # Panics
    /// Panics if the fiber is already done, or if `arg` is one of the
    /// reserved control values (`usize::MAX`, [`UNWOUND`]).
    pub fn resume(&mut self, arg: usize) -> usize {
        assert!(!self.inner.done.get(), "resumed a finished fiber");
        assert!(
            arg != RESUME_FORCED_UNWIND && arg != UNWOUND,
            "resume argument {arg:#x} is reserved"
        );
        self.switch_in(arg)
    }

    /// Tear the fiber down: run every destructor on its stack by raising
    /// [`ForcedUnwind`] at its suspension point, synchronously, on this
    /// thread. Returns `None` if there was nothing to unwind (the fiber
    /// never started, or had already completed — the unstarted entry
    /// function is dropped without running); otherwise the completion
    /// code ([`UNWOUND`] unless the entry caught the unwind and returned
    /// its own code).
    pub fn unwind(&mut self) -> Option<usize> {
        if self.inner.done.get() {
            return None;
        }
        if !self.inner.started.get() {
            self.inner.entry.take();
            self.inner.done.set(true);
            return None;
        }
        // If the entry swallows the unwind and suspends again, insist:
        // teardown must terminate (mirrors the old gate-shutdown loop,
        // which re-raised on every subsequent wait).
        loop {
            let code = self.switch_in(RESUME_FORCED_UNWIND);
            if self.inner.done.get() {
                return Some(code);
            }
        }
    }

    fn switch_in(&mut self, arg: usize) -> usize {
        let inner: *const FiberInner = &*self.inner;
        self.inner.started.set(true);
        let prev = CURRENT.with(|c| c.replace(inner));
        let code = unsafe {
            pio_fiber_switch(
                self.inner.caller_sp.as_ptr(),
                self.inner.fiber_sp.get(),
                arg,
            )
        };
        CURRENT.with(|c| c.set(prev));
        if !self.inner.stack.canary_ok() {
            eprintln!("fatal: fiber stack overflow (canary clobbered); aborting");
            std::process::abort();
        }
        code
    }
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        if self.inner.started.get() && !self.inner.done.get() {
            let _ = self.unwind();
        } else if !self.inner.done.get() {
            // Never started: just discard the entry function.
            self.inner.entry.take();
        }
    }
}

/// Suspend the fiber running on this thread, yielding `code` to its
/// resumer. Returns the argument of the next [`Fiber::resume`].
///
/// # Panics
/// Panics if called outside a running fiber. Raises [`ForcedUnwind`]
/// (via `resume_unwind`, skipping the panic hook) when the fiber is
/// being torn down by [`Fiber::unwind`] or drop.
pub fn suspend(code: usize) -> usize {
    let ptr = CURRENT.with(|c| c.get());
    assert!(
        !ptr.is_null(),
        "fiber::suspend called outside a running fiber"
    );
    debug_assert!(
        code != RESUME_FORCED_UNWIND && code != UNWOUND,
        "suspend code {code:#x} is reserved"
    );
    // The inner is owned by the suspended `Fiber`, which the resumer
    // keeps alive for as long as the fiber is live.
    let inner = unsafe { &*ptr };
    let arg = unsafe { pio_fiber_switch(inner.fiber_sp.as_ptr(), inner.caller_sp.get(), code) };
    if arg == RESUME_FORCED_UNWIND {
        std::panic::resume_unwind(Box::new(ForcedUnwind));
    }
    arg
}

/// Is the current thread executing inside a fiber?
pub fn in_fiber() -> bool {
    CURRENT.with(|c| !c.get().is_null())
}

/// Entry glue, jumped to by `pio_fiber_boot` on a fiber's first resume.
/// Runs the entry function and switches back out with its completion
/// code; never returns.
#[no_mangle]
extern "C" fn pio_fiber_main(inner: *const FiberInner, first_arg: usize) -> ! {
    // The inner outlives the whole fiber execution: the resuming `Fiber`
    // owns it and cannot drop while the fiber is running.
    let inner = unsafe { &*inner };
    let Some(entry) = inner.entry.take() else {
        // Only the first resume boots a fiber, and it finds the entry.
        eprintln!("fatal: fiber booted without an entry; aborting");
        std::process::abort();
    };
    let code = match catch_unwind(AssertUnwindSafe(move || entry(first_arg))) {
        Ok(code) => code,
        Err(payload) if payload.is::<ForcedUnwind>() => UNWOUND,
        Err(_) => {
            // A foreign panic cannot unwind across the context switch.
            eprintln!("fatal: panic escaped a fiber entry function; aborting");
            std::process::abort();
        }
    };
    inner.done.set(true);
    unsafe {
        pio_fiber_switch(inner.fiber_sp.as_ptr(), inner.caller_sp.get(), code);
    }
    // A finished fiber must never be resumed again.
    eprintln!("fatal: finished fiber resumed; aborting");
    std::process::abort();
}

/// Seed a fresh stack so the first `pio_fiber_switch` onto it pops a
/// well-formed callee-saved frame and "returns" into `pio_fiber_boot`
/// with the fiber pointer in the parked register.
fn seed_stack(inner: &FiberInner) {
    let top = inner.stack.top();
    let inner_ptr = inner as *const FiberInner as u64;
    let boot = pio_fiber_boot as *const () as usize as u64;
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // Frame layout must mirror the asm pops: [fpu word][r15][r14]
        // [r13][r12][rbx][rbp][return address]. mxcsr/x87cw get the
        // ABI-default values (all exceptions masked, 64-bit precision).
        let sp = top.sub(64);
        let slots = sp as *mut u64;
        slots.add(0).write(0x1F80 | (0x037F << 32));
        slots.add(1).write(0); // r15
        slots.add(2).write(0); // r14
        slots.add(3).write(0); // r13
        slots.add(4).write(0); // r12
        slots.add(5).write(inner_ptr); // rbx -> fiber pointer for boot
        slots.add(6).write(0); // rbp
        slots.add(7).write(boot); // return address
        inner.fiber_sp.set(sp);
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        // Mirrors the asm ldp sequence: x19..x28, x29/x30, d8..d15.
        let sp = top.sub(160);
        let slots = sp as *mut u64;
        for i in 0..20 {
            slots.add(i).write(0);
        }
        slots.add(0).write(inner_ptr); // x19 -> fiber pointer for boot
        slots.add(11).write(boot); // x30 -> bootstrap return address
        inner.fiber_sp.set(sp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn resume_and_suspend_carry_values_both_ways() {
        let mut f = Fiber::new(MIN_STACK, |first| {
            let mut v = first;
            for _ in 0..3 {
                v = suspend(v * 2);
            }
            v * 2
        });
        assert!(!f.started());
        assert_eq!(f.resume(3), 6);
        assert!(f.started() && !f.is_done());
        assert_eq!(f.resume(5), 10);
        assert_eq!(f.resume(7), 14);
        assert_eq!(f.resume(9), 18);
        assert!(f.is_done());
    }

    #[test]
    fn fibers_interleave_independently() {
        let make = |step: usize| {
            Fiber::new(MIN_STACK, move |mut v| loop {
                v = suspend(v + step);
            })
        };
        let mut a = make(1);
        let mut b = make(100);
        assert_eq!(a.resume(0), 1);
        assert_eq!(b.resume(0), 100);
        assert_eq!(a.resume(1), 2);
        assert_eq!(b.resume(100), 200);
        drop(a);
        drop(b);
    }

    #[test]
    fn float_state_survives_suspension() {
        let mut f = Fiber::new(MIN_STACK, |_| {
            let x = 0.1f64 + 0.2;
            suspend(0);
            let y = x * 10.0;
            (y.round()) as usize
        });
        f.resume(0);
        // Interleave float work on the resuming thread.
        let noise: f64 = (1..100).map(|i| 1.0 / i as f64).sum();
        assert!(noise > 0.0);
        assert_eq!(f.resume(0), 3);
    }

    #[test]
    fn dropping_a_suspended_fiber_runs_destructors() {
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(Cell::new(false));
        let flag = Rc::clone(&dropped);
        let f = Fiber::new(MIN_STACK, move |_| {
            let _guard = SetOnDrop(flag);
            suspend(1);
            unreachable!("torn down before a second resume");
        });
        let mut f = f;
        assert_eq!(f.resume(0), 1);
        assert!(!dropped.get());
        drop(f);
        assert!(dropped.get());
    }

    #[test]
    fn unwind_reports_entry_code_when_caught() {
        let mut f = Fiber::new(MIN_STACK, |_| {
            let r = catch_unwind(AssertUnwindSafe(|| {
                suspend(1);
            }));
            match r {
                Err(p) if p.is::<ForcedUnwind>() => 42,
                _ => 0,
            }
        });
        assert_eq!(f.resume(0), 1);
        assert_eq!(f.unwind(), Some(42));
        assert!(f.is_done());
    }

    #[test]
    fn unwind_without_catch_reports_unwound() {
        let mut f = Fiber::new(MIN_STACK, |_| {
            suspend(1);
            unreachable!()
        });
        assert_eq!(f.resume(0), 1);
        assert_eq!(f.unwind(), Some(UNWOUND));
    }

    #[test]
    fn unwinding_an_unstarted_fiber_drops_the_entry() {
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(Cell::new(false));
        let guard = SetOnDrop(Rc::clone(&dropped));
        let mut f = Fiber::new(MIN_STACK, move |arg| {
            let _hold = &guard;
            arg
        });
        assert_eq!(f.unwind(), None);
        assert!(dropped.get(), "unstarted entry dropped without running");
        assert!(f.is_done());
    }

    #[test]
    fn deep_call_chains_fit_the_stack() {
        fn rec(depth: usize) -> usize {
            // A little stack ballast per frame.
            let pad = [depth; 8];
            if depth == 0 {
                suspend(pad[0]);
                0
            } else {
                rec(depth - 1) + 1
            }
        }
        let mut f = Fiber::new(256 * 1024, |_| rec(500));
        assert_eq!(f.resume(0), 0);
        assert_eq!(f.resume(0), 500);
    }

    #[test]
    fn in_fiber_reflects_context() {
        assert!(!in_fiber());
        let mut f = Fiber::new(MIN_STACK, |_| usize::from(in_fiber()));
        assert_eq!(f.resume(0), 1);
        assert!(!in_fiber());
    }
}
