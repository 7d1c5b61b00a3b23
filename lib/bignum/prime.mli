(** Primality testing and prime generation over {!Nat}. *)

val small_primes : int array
(** The first 2048 primes, as used by OpenSSL's trial-division sieve
    (the basis of the Mironov OpenSSL prime fingerprint). *)

val first_n_primes : int -> int array
(** [first_n_primes n] returns the first [n] primes. *)

val is_small_prime : int -> bool
(** Trial-division primality for native ints (exact). *)

val residue : Nat.t -> int -> int
(** [residue n p] is [n mod p] for [0 < p < 2^31]: native [mod] when [n]
    fits an int, {!Nat.mod_int} otherwise. Partially apply it to reduce
    one value by many primes. The sieve, {!trial_division} and
    {!satisfies_openssl_fingerprint} all go through it. *)

val trial_division : Nat.t -> int option
(** [trial_division n] is [Some p] for the smallest prime [p] from
    {!small_primes} dividing [n], when one exists and [n <> p]. *)

val is_probable_prime : ?gen:(int -> string) -> ?rounds:int -> Nat.t -> bool
(** Miller-Rabin. Always runs the first 12 prime bases (deterministic
    below 3.18e23); when [gen] is supplied, adds [rounds] (default 16)
    random bases drawn from it. Values below [2^native_bits] run on
    native ints, larger ones on {!Nat}; both give the same answer and
    draw the same random bases. *)

val generate : gen:(int -> string) -> bits:int -> Nat.t
(** Uniform random probable prime with exactly [bits] bits (top bit
    forced) using the plain rejection method: draw odd candidates until
    one passes {!is_probable_prime}. This is the [not-OpenSSL]
    generation style in the paper's fingerprint taxonomy. *)

val generate_openssl_style : gen:(int -> string) -> bits:int -> Nat.t
(** OpenSSL-style generation: additionally reject any candidate [p]
    where [p - 1] is divisible by one of the first 2048 primes. Primes
    produced here satisfy the Mironov fingerprint predicate.
    @raise Invalid_argument for 3 to 15 bits, where no such prime
    exists. *)

val satisfies_openssl_fingerprint : Nat.t -> bool
(** [true] when [p - 1] is divisible by none of the first 2048 primes
    (other than trivially); the predicate tested per-prime-factor by
    the fingerprinting stage. *)

val is_safe_prime : ?gen:(int -> string) -> Nat.t -> bool
(** [p] prime with [(p-1)/2] also prime. *)

val next_prime : Nat.t -> Nat.t
(** Smallest probable prime strictly greater than the argument. *)

(** {1 Native path}

    Exposed for tests: the pieces a candidate of at most {!native_bits}
    bits runs on instead of {!Nat}. *)

val native_bits : int
(** Values below [2^native_bits] (here 50) take the native path. *)

val mulmod : int -> int -> int -> int
(** [mulmod a b n] is [a * b mod n], exact for [0 <= a, b < n] and
    [n < 2^native_bits]. *)

val witness_native : int -> int -> int -> int -> bool
(** [witness_native n d s a] is [true] when base [a] proves the odd
    [n] composite, where [n - 1 = d * 2^s], [37 < n < 2^native_bits]
    and [2 <= a <= n - 2]. *)
