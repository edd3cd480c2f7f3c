CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20), note TEXT);
-- keep me
SELECT * /* all cols */ FROM t
  WHERE id = 1 AND REVERSE(name) LIKE 'cba%';
INSERT INTO t (id, name, note) VALUES (1, 'x', -- the note
 'n');
