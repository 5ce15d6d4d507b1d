exception Decode_error of string

type writer = Buffer.t

let writer () = Buffer.create 256
let to_bytes w = Buffer.to_bytes w

let u8 w v =
  if v < 0 || v > 0xff then invalid_arg "Codec.u8";
  Buffer.add_char w (Char.chr v)

let u32 w v =
  if v < 0 || v > 0xffffffff then invalid_arg "Codec.u32";
  for i = 3 downto 0 do
    Buffer.add_char w (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let u64 w v =
  if v < 0 then invalid_arg "Codec.u64";
  for i = 7 downto 0 do
    Buffer.add_char w (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let bytes w b =
  u32 w (Bytes.length b);
  Buffer.add_bytes w b

let string w s =
  u32 w (String.length s);
  Buffer.add_string w s

let bool w b = u8 w (if b then 1 else 0)

let option w f = function
  | None -> u8 w 0
  | Some x ->
    u8 w 1;
    f w x

let list w f xs =
  u32 w (List.length xs);
  List.iter (f w) xs

let array w f xs =
  u32 w (Array.length xs);
  Array.iter (f w) xs

type reader = { buf : bytes; mutable pos : int }

let reader buf = { buf; pos = 0 }

let need r n =
  if r.pos + n > Bytes.length r.buf then raise (Decode_error "unexpected end of input")

let expect_end r =
  if r.pos <> Bytes.length r.buf then raise (Decode_error "trailing bytes")

let read_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let read_fixed r n =
  need r n;
  let v = ref 0 in
  for _ = 1 to n do
    v := (!v lsl 8) lor Char.code (Bytes.get r.buf r.pos);
    r.pos <- r.pos + 1
  done;
  !v

let read_u32 r = read_fixed r 4

let read_u64 r =
  let v = read_fixed r 8 in
  if v < 0 then raise (Decode_error "u64 out of native range");
  v

let read_bytes r =
  let n = read_u32 r in
  need r n;
  let b = Bytes.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  b

let read_string r = Bytes.to_string (read_bytes r)

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Decode_error "bad bool")

let read_option r f =
  match read_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | _ -> raise (Decode_error "bad option tag")

(* Every element encoding is at least one byte, so a count larger than the
   bytes left is a lie: reject it before allocating for it. *)
let read_count r =
  let n = read_u32 r in
  if n > Bytes.length r.buf - r.pos then raise (Decode_error "count exceeds input");
  n

let read_list r f =
  let n = read_count r in
  List.init n (fun _ -> f r)

let read_array r f =
  let n = read_count r in
  Array.init n (fun _ -> f r)

let encode f x =
  let w = writer () in
  f w x;
  to_bytes w

let decode f b =
  let r = reader b in
  let x = f r in
  expect_end r;
  x
