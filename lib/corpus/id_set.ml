type t = { mutable bits : Bytes.t; mutable cardinal : int }

let create ?(size = 64) () =
  { bits = Bytes.make (Stdlib.max ((size + 7) / 8) 1) '\000'; cardinal = 0 }

let copy t = { bits = Bytes.copy t.bits; cardinal = t.cardinal }

let ensure t id =
  let need = (id / 8) + 1 in
  let cap = Bytes.length t.bits in
  if need > cap then begin
    let bits = Bytes.make (Stdlib.max need (2 * cap)) '\000' in
    Bytes.blit t.bits 0 bits 0 cap;
    t.bits <- bits
  end

let add t id =
  if id < 0 then invalid_arg "Corpus.Id_set.add: negative id";
  ensure t id;
  let byte = Char.code (Bytes.get t.bits (id / 8)) in
  let bit = 1 lsl (id mod 8) in
  if byte land bit = 0 then begin
    Bytes.set t.bits (id / 8) (Char.chr (byte lor bit));
    t.cardinal <- t.cardinal + 1
  end

let mem t id =
  id >= 0
  && id / 8 < Bytes.length t.bits
  && Char.code (Bytes.get t.bits (id / 8)) land (1 lsl (id mod 8)) <> 0

let cardinal t = t.cardinal
