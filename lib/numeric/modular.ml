(* Literals rather than [Nat.limb_bits], so the kernels shift and mask
   by immediates instead of loading module fields; checked against [Nat]
   when the module initialises. *)
let limb_bits = 31
let base = 0x8000_0000
let mask = 0x7fff_ffff
let () = assert (limb_bits = Nat.limb_bits && base = 1 lsl limb_bits)

type ctx = {
  m : Nat.t;
  m_limbs : int array; (* fixed width n *)
  n : int; (* limb count *)
  m0' : int; (* -m^{-1} mod 2^31 *)
  r2 : int array; (* (2^31)^(2n) mod m, Montgomery form of R *)
  one_m : int array; (* Montgomery form of 1 *)
}

type mont = int array (* fixed width ctx.n, value < m *)

(* Inverse of odd [v] modulo 2^31 by Newton iteration. *)
let inv_limb v =
  let x = ref v in
  for _ = 1 to 5 do
    x := (!x * (2 - (v * !x))) land mask
  done;
  !x

let fixed_width n a =
  let la = Array.length a in
  if la > n then invalid_arg "Modular: operand wider than modulus";
  let r = Array.make n 0 in
  Array.blit a 0 r 0 la;
  r

let create m =
  if Nat.is_even m then invalid_arg "Modular.create: even modulus";
  if Nat.compare m Nat.two <= 0 then invalid_arg "Modular.create: modulus < 3";
  let ml = Nat.limbs m in
  let n = Array.length ml in
  let m0' = (base - inv_limb ml.(0)) land mask in
  let r2_nat = Nat.rem (Nat.shift_left Nat.one (2 * n * limb_bits)) m in
  let r1_nat = Nat.rem (Nat.shift_left Nat.one (n * limb_bits)) m in
  {
    m;
    m_limbs = fixed_width n ml;
    n;
    m0';
    r2 = fixed_width n (Nat.limbs r2_nat);
    one_m = fixed_width n (Nat.limbs r1_nat);
  }

let modulus ctx = ctx.m
let num_limbs ctx = ctx.n

(* Compare little-endian limb regions, most-significant limb first.
   Top-level recursion, not a local [let rec]: a local closure capturing
   the array operands would be a per-call allocation in the innermost
   prover loop (the non-flambda backend does not lift it). *)
let rec cmp_off_from a ao b bo i =
  if i < 0 then 0
  else begin
    let x = a.(ao + i) and y = b.(bo + i) in
    if x < y then -1 else if x > y then 1 else cmp_off_from a ao b bo (i - 1)
  end

(* ------------------------------------------------------------------ *)
(* Offset kernels over raw limb regions.

   Each kernel operates on an n-limb little-endian region of a flat
   [int array] starting at the given offset; regions must hold values
   < m (every kernel re-establishes that invariant).  These back both
   the in-place [mont_*_into] variants below (offset 0) and the flat
   element vectors of {!Zebra_field.Fp.Vec}, so the prover hot path
   can run without allocating a limb array per operation.

   Aliasing rules (documented in the .mli):
   - [add_off]/[sub_off]/[neg_off] read index i before writing index i,
     so the destination region may coincide with either source region
     exactly (same array, same offset).  Partially-overlapping regions
     are invalid.
   - [mul_off] uses the destination region as the CIOS accumulator, so
     it must be disjoint from both source regions ([Invalid_argument]
     on a detected overlap).  The two source regions may coincide
     (squaring). *)

let cmp_off a ao b bo n = cmp_off_from a ao b bo (n - 1)

(* r[ro..] <- r[ro..] - m; assumes the region holds a value >= m. *)
let sub_m_off ctx r ro =
  let borrow = ref 0 in
  for i = 0 to ctx.n - 1 do
    let d = r.(ro + i) - ctx.m_limbs.(i) - !borrow in
    if d < 0 then begin
      r.(ro + i) <- d + base;
      borrow := 1
    end
    else begin
      r.(ro + i) <- d;
      borrow := 0
    end
  done

let add_off ctx r ro a ao b bo =
  let n = ctx.n in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.(ao + i) + b.(bo + i) + !carry in
    r.(ro + i) <- s land mask;
    carry := s lsr limb_bits
  done;
  if !carry <> 0 || cmp_off r ro ctx.m_limbs 0 n >= 0 then sub_m_off ctx r ro

let sub_off ctx r ro a ao b bo =
  let n = ctx.n in
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let d = a.(ao + i) - b.(bo + i) - !borrow in
    if d < 0 then begin
      r.(ro + i) <- d + base;
      borrow := 1
    end
    else begin
      r.(ro + i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then begin
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s = r.(ro + i) + ctx.m_limbs.(i) + !carry in
      r.(ro + i) <- s land mask;
      carry := s lsr limb_bits
    done
  end

let rec is_zero_off_from a ao n i = i >= n || (a.(ao + i) = 0 && is_zero_off_from a ao n (i + 1))
let is_zero_off ctx a ao = is_zero_off_from a ao ctx.n 0

let neg_off ctx r ro a ao =
  if is_zero_off ctx a ao then Array.fill r ro ctx.n 0
  else begin
    let borrow = ref 0 in
    for i = 0 to ctx.n - 1 do
      let d = ctx.m_limbs.(i) - a.(ao + i) - !borrow in
      if d < 0 then begin
        r.(ro + i) <- d + base;
        borrow := 1
      end
      else begin
        r.(ro + i) <- d;
        borrow := 0
      end
    done
  end

let overlaps r ro a ao n = r == a && abs (ro - ao) < n

let check_disjoint n r ro a ao b bo =
  if overlaps r ro a ao n || overlaps r ro b bo n then
    invalid_arg "Modular.mul_off: destination overlaps a source"

(* Width-generic CIOS with the destination region as accumulator.  The
   two limbs that overflow the n-wide accumulator live in scalar refs, so
   the region itself is the whole working set.  The destination must be
   disjoint from both sources: the accumulator is written at index j-1
   while source limbs at indices >= j are still pending reads. *)
let mul_off_generic ctx r ro a ao b bo =
  let n = ctx.n in
  check_disjoint n r ro a ao b bo;
  Array.fill r ro n 0;
  let t_n = ref 0 in
  let t_n1 = ref 0 in
  for i = 0 to n - 1 do
    let ai = a.(ao + i) in
    let c = ref 0 in
    for j = 0 to n - 1 do
      let acc = r.(ro + j) + (ai * b.(bo + j)) + !c in
      r.(ro + j) <- acc land mask;
      c := acc lsr limb_bits
    done;
    let acc = !t_n + !c in
    t_n := acc land mask;
    t_n1 := !t_n1 + (acc lsr limb_bits);
    let mi = (r.(ro) * ctx.m0') land mask in
    let c = ref ((r.(ro) + (mi * ctx.m_limbs.(0))) lsr limb_bits) in
    for j = 1 to n - 1 do
      let acc = r.(ro + j) + (mi * ctx.m_limbs.(j)) + !c in
      r.(ro + j - 1) <- acc land mask;
      c := acc lsr limb_bits
    done;
    let acc = !t_n + !c in
    r.(ro + n - 1) <- acc land mask;
    t_n := !t_n1 + (acc lsr limb_bits);
    t_n1 := 0
  done;
  if !t_n <> 0 || cmp_off r ro ctx.m_limbs 0 n >= 0 then sub_m_off ctx r ro

(* The same CIOS unrolled for 9 limbs, the width of the BN254 [Fp]
   modulus.  Operand and modulus limbs sit in immutable locals and the
   accumulator in ten mutable ones ([t9] is the overflow limb, at most 1
   between rows since the accumulator stays below 2m < 2^280), so a row
   touches no array but one limb of [a].  Every product of
   two 31-bit limbs plus two 31-bit carries is at most 2^62 - 1, so no
   step leaves OCaml's 63-bit int.  Unsafe access: [mul_off] has checked
   each region against its array, and [m_limbs] has exactly 9 limbs. *)
let mul9 ctx r ro a ao b bo =
  let m = ctx.m_limbs and m0' = ctx.m0' in
  let b0 = Array.unsafe_get b bo and b1 = Array.unsafe_get b (bo + 1)
  and b2 = Array.unsafe_get b (bo + 2) and b3 = Array.unsafe_get b (bo + 3)
  and b4 = Array.unsafe_get b (bo + 4) and b5 = Array.unsafe_get b (bo + 5)
  and b6 = Array.unsafe_get b (bo + 6) and b7 = Array.unsafe_get b (bo + 7)
  and b8 = Array.unsafe_get b (bo + 8) in
  let m0 = Array.unsafe_get m 0 and m1 = Array.unsafe_get m 1
  and m2 = Array.unsafe_get m 2 and m3 = Array.unsafe_get m 3
  and m4 = Array.unsafe_get m 4 and m5 = Array.unsafe_get m 5
  and m6 = Array.unsafe_get m 6 and m7 = Array.unsafe_get m 7
  and m8 = Array.unsafe_get m 8 in
  let t0 = ref 0 and t1 = ref 0 and t2 = ref 0 and t3 = ref 0 and t4 = ref 0 in
  let t5 = ref 0 and t6 = ref 0 and t7 = ref 0 and t8 = ref 0 and t9 = ref 0 in
  for i = 0 to 8 do
    (* One row, t <- (t + a_i b + q m) / 2^31, with the product and the
       reduction fused limb by limb: [c] carries the product chain, [d]
       the reduction chain, and q is fixed by the first limb. *)
    let ai = Array.unsafe_get a (ao + i) in
    let s = !t0 + (ai * b0) in
    let q = (s land mask * m0') land mask in
    let c = s lsr limb_bits in
    let d = ((s land mask) + (q * m0)) lsr limb_bits in
    let s = !t1 + (ai * b1) + c in
    let c = s lsr limb_bits in
    let s = (s land mask) + (q * m1) + d in
    t0 := s land mask;
    let d = s lsr limb_bits in
    let s = !t2 + (ai * b2) + c in
    let c = s lsr limb_bits in
    let s = (s land mask) + (q * m2) + d in
    t1 := s land mask;
    let d = s lsr limb_bits in
    let s = !t3 + (ai * b3) + c in
    let c = s lsr limb_bits in
    let s = (s land mask) + (q * m3) + d in
    t2 := s land mask;
    let d = s lsr limb_bits in
    let s = !t4 + (ai * b4) + c in
    let c = s lsr limb_bits in
    let s = (s land mask) + (q * m4) + d in
    t3 := s land mask;
    let d = s lsr limb_bits in
    let s = !t5 + (ai * b5) + c in
    let c = s lsr limb_bits in
    let s = (s land mask) + (q * m5) + d in
    t4 := s land mask;
    let d = s lsr limb_bits in
    let s = !t6 + (ai * b6) + c in
    let c = s lsr limb_bits in
    let s = (s land mask) + (q * m6) + d in
    t5 := s land mask;
    let d = s lsr limb_bits in
    let s = !t7 + (ai * b7) + c in
    let c = s lsr limb_bits in
    let s = (s land mask) + (q * m7) + d in
    t6 := s land mask;
    let d = s lsr limb_bits in
    let s = !t8 + (ai * b8) + c in
    let c = s lsr limb_bits in
    let s = (s land mask) + (q * m8) + d in
    t7 := s land mask;
    let s = !t9 + c + (s lsr limb_bits) in
    t8 := s land mask;
    t9 := s lsr limb_bits
  done;
  Array.unsafe_set r ro !t0;
  Array.unsafe_set r (ro + 1) !t1;
  Array.unsafe_set r (ro + 2) !t2;
  Array.unsafe_set r (ro + 3) !t3;
  Array.unsafe_set r (ro + 4) !t4;
  Array.unsafe_set r (ro + 5) !t5;
  Array.unsafe_set r (ro + 6) !t6;
  Array.unsafe_set r (ro + 7) !t7;
  Array.unsafe_set r (ro + 8) !t8;
  if !t9 <> 0 || cmp_off r ro m 0 9 >= 0 then sub_m_off ctx r ro

let region_ok arr off n = off >= 0 && off <= Array.length arr - n

(* The one entry point for Montgomery multiplication: the width test
   and the region checks that make [mul9]'s unsafe access sound run
   once per call, outside the limb loops. *)
let mul_off ctx r ro a ao b bo =
  if ctx.n = 9 then begin
    check_disjoint 9 r ro a ao b bo;
    if not (region_ok r ro 9 && region_ok a ao 9 && region_ok b bo 9) then
      invalid_arg "Modular.mul_off: region out of bounds";
    mul9 ctx r ro a ao b bo
  end
  else mul_off_generic ctx r ro a ao b bo

(* ------------------------------------------------------------------ *)
(* Pure operations: a fresh result buffer plus the offset kernel. *)

let mont_zero ctx = Array.make ctx.n 0
let mont_one ctx = Array.copy ctx.one_m

let mont_add ctx a b =
  let r = Array.make ctx.n 0 in
  add_off ctx r 0 a 0 b 0;
  r

let mont_sub ctx a b =
  let r = Array.make ctx.n 0 in
  sub_off ctx r 0 a 0 b 0;
  r

let mont_neg ctx a =
  let r = Array.make ctx.n 0 in
  neg_off ctx r 0 a 0;
  r

let mont_mul ctx a b =
  let r = Array.make ctx.n 0 in
  mul_off ctx r 0 a 0 b 0;
  r

let mont_sqr ctx a = mont_mul ctx a a
let mont_equal a b = cmp_off a 0 b 0 (Array.length a) = 0

(* ------------------------------------------------------------------ *)
(* In-place variants on whole [mont] values (offset-0 specialisation).
   Only safe on buffers the caller owns — never mutate a [mont] that
   other code may hold a reference to (shared constants like
   [mont_one], deduplicated witness values, ...). *)

let mont_buffer ctx = Array.make ctx.n 0
let mont_copy (a : mont) : mont = Array.copy a
let mont_set ~dst (a : mont) = Array.blit a 0 dst 0 (Array.length dst)
let mont_set_zero (dst : mont) = Array.fill dst 0 (Array.length dst) 0
let mont_set_one ctx ~dst = Array.blit ctx.one_m 0 dst 0 ctx.n
let mont_add_into ctx ~dst a b = add_off ctx dst 0 a 0 b 0
let mont_sub_into ctx ~dst a b = sub_off ctx dst 0 a 0 b 0
let mont_neg_into ctx ~dst a = neg_off ctx dst 0 a 0
let mont_mul_into ctx ~dst a b = mul_off ctx dst 0 a 0 b 0
let mont_sqr_into ctx ~dst a = mul_off ctx dst 0 a 0 a 0
let mont_of_region ctx a ao : mont = Array.sub a ao ctx.n

let to_mont ctx x =
  let x = if Nat.compare x ctx.m >= 0 then Nat.rem x ctx.m else x in
  mont_mul ctx (fixed_width ctx.n (Nat.limbs x)) ctx.r2

let of_mont ctx a = Nat.of_limbs (mont_mul ctx a (fixed_width ctx.n [| 1 |]))

(* 4-bit sliding-window exponentiation.  An 8-entry table of odd powers
   b^1, b^3, ..., b^15 turns runs of exponent bits into one table
   multiplication each, cutting the expected multiplication count from
   ~nb/2 (square-and-multiply) to ~nb/5 for the same square count.
   Field arithmetic is exact and the representation canonical, so the
   result limbs are identical to the binary method's. *)
let mont_pow ctx b e =
  let nb = Nat.num_bits e in
  if nb = 0 then mont_one ctx
  else if nb <= 4 then begin
    let acc = ref (Array.copy b) in
    for i = nb - 2 downto 0 do
      acc := mont_sqr ctx !acc;
      if Nat.testbit e i then acc := mont_mul ctx !acc b
    done;
    !acc
  end
  else begin
    let b2 = mont_sqr ctx b in
    let tbl = Array.make 8 b in
    for k = 1 to 7 do
      tbl.(k) <- mont_mul ctx tbl.(k - 1) b2
    done;
    let acc = ref None in
    let i = ref (nb - 1) in
    while !i >= 0 do
      if not (Nat.testbit e !i) then begin
        (match !acc with Some a -> acc := Some (mont_sqr ctx a) | None -> ());
        decr i
      end
      else begin
        (* widest window [j, i] of <= 4 bits whose low bit is set *)
        let j = ref (max 0 (!i - 3)) in
        while not (Nat.testbit e !j) do
          incr j
        done;
        let w = ref 0 in
        for k = !i downto !j do
          w := (!w lsl 1) lor (if Nat.testbit e k then 1 else 0)
        done;
        let entry = tbl.((!w - 1) / 2) in
        (match !acc with
        | None -> acc := Some (Array.copy entry)
        | Some a ->
            let a = ref a in
            for _ = 1 to !i - !j + 1 do
              a := mont_sqr ctx !a
            done;
            acc := Some (mont_mul ctx !a entry));
        i := !j - 1
      end
    done;
    match !acc with Some a -> a | None -> assert false
  end

(* Binary inverse for odd modulus (HAC 14.61 specialisation). *)
let inv_nat_odd a m =
  let a = Nat.rem a m in
  if Nat.is_zero a then raise Division_by_zero;
  let half x =
    (* x/2 mod m for odd m *)
    if Nat.is_even x then Nat.shift_right x 1
    else Nat.shift_right (Nat.add x m) 1
  in
  let u = ref a and v = ref m in
  let x1 = ref Nat.one and x2 = ref Nat.zero in
  let sub_mod a b = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a m) b in
  while (not (Nat.equal !u Nat.one)) && not (Nat.equal !v Nat.one) do
    while Nat.is_even !u && not (Nat.is_zero !u) do
      u := Nat.shift_right !u 1;
      x1 := half !x1
    done;
    while Nat.is_even !v && not (Nat.is_zero !v) do
      v := Nat.shift_right !v 1;
      x2 := half !x2
    done;
    if Nat.is_zero !u || Nat.is_zero !v then raise Division_by_zero;
    if Nat.compare !u !v >= 0 then begin
      u := Nat.sub !u !v;
      x1 := sub_mod !x1 !x2
    end
    else begin
      v := Nat.sub !v !u;
      x2 := sub_mod !x2 !x1
    end
  done;
  if Nat.equal !u Nat.one then !x1 else !x2

(* Signed extended Euclid for arbitrary modulus (RSA keygen needs even
   moduli).  Signed values are (negative flag, magnitude). *)
let inverse a m =
  if Nat.compare m Nat.two < 0 then invalid_arg "Modular.inverse: modulus < 2";
  let s_sub (na, a) (nb, b) =
    (* a - b with signs *)
    match (na, nb) with
    | false, true -> (false, Nat.add a b)
    | true, false -> (true, Nat.add a b)
    | false, false -> if Nat.compare a b >= 0 then (false, Nat.sub a b) else (true, Nat.sub b a)
    | true, true -> if Nat.compare b a >= 0 then (false, Nat.sub b a) else (true, Nat.sub a b)
  in
  let s_mul_nat (na, a) q = (na, Nat.mul a q) in
  let a = Nat.rem a m in
  if Nat.is_zero a then raise Division_by_zero;
  let r0 = ref m and r1 = ref a in
  let t0 = ref (false, Nat.zero) and t1 = ref (false, Nat.one) in
  while not (Nat.is_zero !r1) do
    let q, r = Nat.divmod !r0 !r1 in
    r0 := !r1;
    r1 := r;
    let t = s_sub !t0 (s_mul_nat !t1 q) in
    t0 := !t1;
    t1 := t
  done;
  if not (Nat.equal !r0 Nat.one) then raise Division_by_zero;
  let neg, mag = !t0 in
  let mag = Nat.rem mag m in
  if neg && not (Nat.is_zero mag) then Nat.sub m mag else mag

let mont_inv ctx a =
  let x = of_mont ctx a in
  to_mont ctx (inv_nat_odd x ctx.m)

let add ctx a b = of_mont ctx (mont_add ctx (to_mont ctx a) (to_mont ctx b))
let sub ctx a b = of_mont ctx (mont_sub ctx (to_mont ctx a) (to_mont ctx b))
let mul ctx a b = of_mont ctx (mont_mul ctx (to_mont ctx a) (to_mont ctx b))
let pow ctx b e = of_mont ctx (mont_pow ctx (to_mont ctx b) e)
let inv ctx a = inv_nat_odd a ctx.m
