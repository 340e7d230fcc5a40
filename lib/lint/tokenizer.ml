type token =
  | Ident of string
  | Uident of string
  | Str of string
  | Chr of string
  | Number of string
  | Sym of string

type positioned = { tok : token; line : int; col : int }
type comment = { c_start : int; c_end : int; c_text : string }
type t = { tokens : positioned array; comments : comment list }

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_digit c = c >= '0' && c <= '9'

let is_number_char c =
  is_digit c
  || (c >= 'a' && c <= 'f')
  || (c >= 'A' && c <= 'F')
  || c = '_' || c = 'x' || c = 'X' || c = 'o' || c = 'O' || c = 'b' || c = 'B'

let is_lower c = (c >= 'a' && c <= 'z') || c = '_'

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of the current line's first char *)
  mutable toks : positioned list;
  mutable cmts : comment list;
}

let peek st k = if st.pos + k < st.len then Some st.src.[st.pos + k] else None

let advance st =
  (if st.src.[st.pos] = '\n' then begin
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   end);
  st.pos <- st.pos + 1

let emit st ~line ~col tok = st.toks <- { tok; line; col } :: st.toks

(* An ordinary double-quoted string: returns content. [pos] is at the
   opening quote. A backslash always protects the next char, which is
   all we need for escaped quotes and backslashes (multi-char escapes
   lex as content). *)
let scan_string st =
  let buf = Buffer.create 16 in
  advance st;
  let rec loop () =
    if st.pos >= st.len then ()
    else
      match st.src.[st.pos] with
      | '"' -> advance st
      | '\\' ->
          Buffer.add_char buf '\\';
          advance st;
          if st.pos < st.len then begin
            Buffer.add_char buf st.src.[st.pos];
            advance st
          end;
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          loop ()
  in
  loop ();
  Buffer.contents buf

(* {id|...|id} quoted string; [pos] at '{'. Only called when the
   lookahead confirmed the shape. No escapes inside. *)
let scan_quoted_string st =
  let buf = Buffer.create 16 in
  advance st;
  let id_start = st.pos in
  while st.pos < st.len && is_lower st.src.[st.pos] do
    advance st
  done;
  let id = String.sub st.src id_start (st.pos - id_start) in
  let closer = "|" ^ id ^ "}" in
  let clen = String.length closer in
  advance st (* the opening '|' *);
  let rec loop () =
    if st.pos >= st.len then ()
    else if
      st.src.[st.pos] = '|'
      && st.pos + clen <= st.len
      && String.sub st.src st.pos clen = closer
    then
      for _ = 1 to clen do
        advance st
      done
    else begin
      Buffer.add_char buf st.src.[st.pos];
      advance st;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

(* Is the '{' at [pos] the start of a quoted string? *)
let quoted_string_ahead st =
  let rec scan k =
    match peek st k with
    | Some c when is_lower c -> scan (k + 1)
    | Some '|' -> true
    | _ -> false
  in
  scan 1

(* A comment, possibly nested, with strings inside handled like the
   real lexer. [pos] at the first '('. *)
let scan_comment st =
  let start_line = st.line in
  let buf = Buffer.create 32 in
  advance st;
  advance st;
  let depth = ref 1 in
  let rec loop () =
    if st.pos >= st.len || !depth = 0 then ()
    else if st.src.[st.pos] = '(' && peek st 1 = Some '*' then begin
      incr depth;
      Buffer.add_string buf "(*";
      advance st;
      advance st;
      loop ()
    end
    else if st.src.[st.pos] = '*' && peek st 1 = Some ')' then begin
      decr depth;
      if !depth > 0 then Buffer.add_string buf "*)";
      advance st;
      advance st;
      loop ()
    end
    else if st.src.[st.pos] = '"' then begin
      let s = scan_string st in
      Buffer.add_char buf '"';
      Buffer.add_string buf s;
      Buffer.add_char buf '"';
      loop ()
    end
    else if st.src.[st.pos] = '{' && quoted_string_ahead st then begin
      Buffer.add_string buf (scan_quoted_string st);
      loop ()
    end
    else begin
      Buffer.add_char buf st.src.[st.pos];
      advance st;
      loop ()
    end
  in
  loop ();
  st.cmts <- { c_start = start_line; c_end = st.line; c_text = Buffer.contents buf } :: st.cmts

(* A ' at [pos]: char literal, or just a quote (type variable). The
   caller guarantees the previous token was not an identifier (primes
   in identifiers are consumed by the identifier scanner). *)
let scan_quote st ~line ~col =
  match peek st 1 with
  | Some '\\' ->
      (* '\n' '\\' '\'' '\xHH' '\123' — the char right after the
         backslash is part of the escape even when it is a quote;
         numeric escapes carry at most two further chars, so the scan
         is bounded and an unrelated apostrophe can't swallow the
         file. *)
      let buf = Buffer.create 4 in
      advance st;
      Buffer.add_char buf '\\';
      advance st;
      if st.pos < st.len then begin
        Buffer.add_char buf st.src.[st.pos];
        advance st
      end;
      let budget = ref 3 in
      let rec loop () =
        if st.pos >= st.len || !budget = 0 then ()
        else if st.src.[st.pos] = '\'' then advance st
        else begin
          Buffer.add_char buf st.src.[st.pos];
          advance st;
          decr budget;
          loop ()
        end
      in
      loop ();
      emit st ~line ~col (Chr (Buffer.contents buf))
  | Some c when peek st 2 = Some '\'' ->
      advance st;
      advance st;
      advance st;
      emit st ~line ~col (Chr (String.make 1 c))
  | _ ->
      advance st;
      emit st ~line ~col (Sym "'")

let scan_number st ~line ~col =
  let start = st.pos in
  while st.pos < st.len && is_number_char st.src.[st.pos] do
    advance st
  done;
  (* fractional part *)
  (if st.pos < st.len && st.src.[st.pos] = '.' then begin
     advance st;
     while st.pos < st.len && (is_digit st.src.[st.pos] || st.src.[st.pos] = '_') do
       advance st
     done
   end);
  (* exponent *)
  (match peek st 0 with
  | Some ('e' | 'E') when (match peek st 1 with
                          | Some c -> is_digit c || c = '+' || c = '-'
                          | None -> false) ->
      advance st;
      advance st;
      while st.pos < st.len && (is_digit st.src.[st.pos] || st.src.[st.pos] = '_') do
        advance st
      done
  | _ -> ());
  emit st ~line ~col (Number (String.sub st.src start (st.pos - start)))

let tokenize src =
  let st = { src; len = String.length src; pos = 0; line = 1; bol = 0; toks = []; cmts = [] } in
  while st.pos < st.len do
    let line = st.line and col = st.pos - st.bol in
    let c = src.[st.pos] in
    if c = '(' && peek st 1 = Some '*' then scan_comment st
    else if c = '"' then emit st ~line ~col (Str (scan_string st))
    else if c = '{' && quoted_string_ahead st then
      emit st ~line ~col (Str (scan_quoted_string st))
    else if c = '\'' then scan_quote st ~line ~col
    else if is_digit c then scan_number st ~line ~col
    else if is_ident_start c then begin
      let start = st.pos in
      while st.pos < st.len && is_ident_char st.src.[st.pos] do
        advance st
      done;
      let s = String.sub src start (st.pos - start) in
      emit st ~line ~col (if c >= 'A' && c <= 'Z' then Uident s else Ident s)
    end
    else begin
      advance st;
      if c <> ' ' && c <> '\t' && c <> '\n' && c <> '\r' then
        emit st ~line ~col (Sym (String.make 1 c))
    end
  done;
  { tokens = Array.of_list (List.rev st.toks); comments = List.rev st.cmts }

let binding_head (r : t) i =
  let n = Array.length r.tokens in
  let at j = if j < n then Some r.tokens.(j).tok else None in
  (* Past any [\[@...\]] attributes, nested brackets included. *)
  let rec skip_attributes j =
    if at j = Some (Sym "[") && at (j + 1) = Some (Sym "@") then begin
      let rec close j depth =
        match at j with
        | None -> n
        | Some (Sym "[") -> close (j + 1) (depth + 1)
        | Some (Sym "]") -> if depth = 1 then j + 1 else close (j + 1) (depth - 1)
        | Some _ -> close (j + 1) depth
      in
      skip_attributes (close j 0)
    end
    else j
  in
  let j = skip_attributes (i + 1) in
  skip_attributes (if at j = Some (Ident "rec") then j + 1 else j)
